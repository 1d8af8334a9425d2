package route

import (
	"math"
	"math/rand"
	"testing"
)

// testKeys is a key slab for table tests: each add appends key i's
// words, as the search appends a child's key, and returns its index.
type testKeys struct {
	kw   int
	keys []uint64
}

// add appends the kw-word key derived from i and returns its index.
// Every word depends on i, so keys of distinct i differ in each word.
func (s *testKeys) add(i int) int32 {
	for w := 0; w < s.kw; w++ {
		s.keys = append(s.keys, uint64(i)*uint64(2*w+1)+uint64(w)<<40)
	}
	return int32(len(s.keys)/s.kw - 1)
}

// checkEpochTableProperty runs seeded random lower/get/reset sequences
// against a plain map keyed by the key's source integer. Each lookup
// appends a fresh copy of the key to the slab, as the search does for
// every child it generates. Each round draws its key count from a range
// wide enough to cross several growths of the 256-slot first allocation
// (past 8192 slots), then resets and checks every key of the round
// misses.
func checkEpochTableProperty(t *testing.T, kw int, seed int64) {
	t.Helper()
	var tab epochTable
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 24; round++ {
		tab.reset(kw)
		slab := &testKeys{kw: kw}
		ref := make(map[int]float64)
		domain := 1 + rng.Intn(6000)
		for op := 3 * domain; op > 0; op-- {
			k := rng.Intn(domain)
			si := slab.add(k)
			if rng.Intn(3) == 0 {
				g, ok := tab.get(slab.keys, si)
				wg, wok := ref[k]
				if ok != wok || g != wg {
					t.Fatalf("kw %d round %d: get(%d) = (%v, %v), map has (%v, %v)", kw, round, k, g, ok, wg, wok)
				}
				continue
			}
			g := float64(rng.Intn(50))
			want := true
			if prev, ok := ref[k]; ok && g >= prev {
				want = false
			} else {
				ref[k] = g
			}
			if got := tab.lower(slab.keys, si, g); got != want {
				t.Fatalf("kw %d round %d: lower(%d, %v) = %v, map says %v", kw, round, k, g, got, want)
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("kw %d round %d: %d live entries, map has %d", kw, round, tab.live, len(ref))
		}
		for k, want := range ref {
			if g, ok := tab.get(slab.keys, slab.add(k)); !ok || g != want {
				t.Fatalf("kw %d round %d: get(%d) = (%v, %v) before reset, want (%v, true)", kw, round, k, g, ok, want)
			}
		}
		tab.reset(kw)
		for k := range ref {
			si := slab.add(k)
			if _, ok := tab.get(slab.keys, si); ok {
				t.Fatalf("kw %d round %d: key %d survived reset", kw, round, k)
			}
			if !tab.lower(slab.keys, si, math.Inf(1)) {
				t.Fatalf("kw %d round %d: key %d survived reset (lower refused)", kw, round, k)
			}
		}
	}
}

// TestEpochTableMatchesMap: the epoch table behaves exactly like a Go map
// that is cleared between searches, at key widths from one word up past
// four (30 program qubits on a 300-qubit machine take five).
func TestEpochTableMatchesMap(t *testing.T) {
	for _, kw := range []int{1, 2, 4, 5} {
		for seed := int64(1); seed <= 3; seed++ {
			checkEpochTableProperty(t, kw, seed)
		}
	}
}

// TestEpochTableStampWraparound: when the 32-bit epoch wraps, slots
// stamped long ago must not come back to life. Keys written at epochs 1
// and 2 are left in place while the epoch runs up to MaxUint32 and
// wraps; the wrap lands on epochs 1 and 2 again, so without the
// one-time clear those stale slots would read as current.
func TestEpochTableStampWraparound(t *testing.T) {
	const kw = 4
	var tab epochTable
	slab := &testKeys{kw: kw}
	var stale []int
	for e := 0; e < 2; e++ {
		tab.reset(kw)
		for i := 0; i < 50; i++ {
			k := 100*e + i
			tab.lower(slab.keys, slab.add(k), 1)
			stale = append(stale, k)
		}
	}
	tab.epoch = math.MaxUint32 - 2
	wrapped := false
	for step := 0; step < 6; step++ {
		tab.reset(kw)
		if tab.epoch == 0 {
			t.Fatal("epoch 0 is reserved for fresh slots")
		}
		wrapped = wrapped || tab.epoch < 10
		// One live entry, so get probes rather than short-circuiting on
		// an empty table.
		fresh := slab.add(1000 + step)
		if !tab.lower(slab.keys, fresh, 2) || tab.lower(slab.keys, fresh, 3) {
			t.Fatalf("step %d (epoch %d): lower misbehaves after the jump", step, tab.epoch)
		}
		for _, k := range stale {
			if _, ok := tab.get(slab.keys, slab.add(k)); ok {
				t.Fatalf("step %d (epoch %d): key %d from an older epoch hit", step, tab.epoch, k)
			}
		}
	}
	if !wrapped {
		t.Fatal("test premise: the epoch must wrap")
	}
}

// TestEpochTableGrowKeepsOnlyCurrentEpoch: growth reinserts the current
// epoch's entries and drops every older one, so the grown table holds
// exactly the live keys.
func TestEpochTableGrowKeepsOnlyCurrentEpoch(t *testing.T) {
	const kw = 5
	var tab epochTable
	slab := &testKeys{kw: kw}
	tab.reset(kw)
	for i := 0; i < 100; i++ {
		tab.lower(slab.keys, slab.add(i), float64(i))
	}
	tab.reset(kw)
	before := len(tab.slots)
	for i := 1000; i < 1200; i++ {
		tab.lower(slab.keys, slab.add(i), float64(i))
	}
	if len(tab.slots) <= before {
		t.Fatalf("test premise: 200 keys must grow the %d-slot table", before)
	}
	current := 0
	for _, s := range tab.slots {
		switch s.stamp {
		case tab.epoch:
			current++
		case 0:
		default:
			t.Fatalf("grown table kept a slot from epoch %d (now %d)", s.stamp, tab.epoch)
		}
	}
	if current != 200 || tab.live != 200 {
		t.Fatalf("grown table has %d current slots (live %d), want 200", current, tab.live)
	}
	for i := 0; i < 100; i++ {
		if _, ok := tab.get(slab.keys, slab.add(i)); ok {
			t.Fatalf("key %d from the previous epoch survived growth", i)
		}
	}
	for i := 1000; i < 1200; i++ {
		if g, ok := tab.get(slab.keys, slab.add(i)); !ok || g != float64(i) {
			t.Fatalf("key %d: get = (%v, %v) after growth, want (%v, true)", i, g, ok, float64(i))
		}
	}
}

// TestCostTablesShareHopMatrix: both cost models read the device's one
// memoized hop table, and under CostHops dist is that same memory rather
// than a second build.
func TestCostTablesShareHopMatrix(t *testing.T) {
	d := goldenQ20()
	hops := d.HopMatrix()

	cmH := newCosts(d, CostHops)
	if cmH.hops != hops {
		t.Fatal("CostHops table does not use Device.HopMatrix")
	}
	if cmH.dist != cmH.hops {
		t.Fatal("CostHops dist does not alias hops")
	}

	cmR := newCosts(d, CostReliability)
	if cmR.hops != hops {
		t.Fatal("CostReliability table does not use Device.HopMatrix")
	}
	if cmR.dist == cmR.hops {
		t.Fatal("CostReliability dist must be its own Dijkstra table")
	}
}
