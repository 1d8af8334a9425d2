package route

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refLower is the plain-map reference for epochTable.lower.
func refLower[K comparable](ref map[K]float64, k K, g float64) bool {
	if prev, ok := ref[k]; ok && g >= prev {
		return false
	}
	ref[k] = g
	return true
}

// checkEpochTableProperty runs seeded random lower/get/reset sequences
// against a plain map. Each round draws its key count from a range wide
// enough to cross several growths of the 256-slot first allocation
// (past 8192 slots), then resets and checks every key of the round
// misses.
func checkEpochTableProperty[K comparable](t *testing.T, tab epochTable[K], key func(int) K, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 24; round++ {
		ref := make(map[K]float64)
		domain := 1 + rng.Intn(6000)
		for op := 3 * domain; op > 0; op-- {
			k := key(rng.Intn(domain))
			if rng.Intn(3) == 0 {
				g, ok := tab.get(k)
				wg, wok := ref[k]
				if ok != wok || g != wg {
					t.Fatalf("round %d: get(%v) = (%v, %v), map has (%v, %v)", round, k, g, ok, wg, wok)
				}
				continue
			}
			g := float64(rng.Intn(50))
			if got, want := tab.lower(k, g), refLower(ref, k, g); got != want {
				t.Fatalf("round %d: lower(%v, %v) = %v, map says %v", round, k, g, got, want)
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("round %d: %d live entries, map has %d", round, tab.live, len(ref))
		}
		for k, want := range ref {
			if g, ok := tab.get(k); !ok || g != want {
				t.Fatalf("round %d: get(%v) = (%v, %v) before reset, want (%v, true)", round, k, g, ok, want)
			}
		}
		tab.reset()
		for k := range ref {
			if _, ok := tab.get(k); ok {
				t.Fatalf("round %d: key %v survived reset", round, k)
			}
			if !tab.lower(k, math.Inf(1)) {
				t.Fatalf("round %d: key %v survived reset (lower refused)", round, k)
			}
		}
		tab.reset()
	}
}

func packedTestKey(i int) packedKey {
	return packedKey{uint64(i), uint64(i) * 7, 0, uint64(i % 3)}
}

func stringTestKey(i int) string { return strconv.Itoa(i) }

// TestEpochTableMatchesMap: the epoch table behaves exactly like a Go map
// that is cleared between searches, for both key types the search uses.
func TestEpochTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		checkEpochTableProperty(t, newEpochTable(hashPacked), packedTestKey, seed)
		checkEpochTableProperty(t, newEpochTable(hashString), stringTestKey, seed)
	}
}

// TestEpochTableStampWraparound: when the 32-bit epoch wraps, slots
// stamped long ago must not come back to life. Keys written at epochs 1
// and 2 are left in place while the epoch runs up to MaxUint32 and
// wraps; the wrap lands on epochs 1 and 2 again, so without the
// one-time clear those stale slots would read as current.
func TestEpochTableStampWraparound(t *testing.T) {
	tab := newEpochTable(hashPacked)
	var stale []packedKey
	for e := 0; e < 2; e++ {
		for i := 0; i < 50; i++ {
			k := packedTestKey(100*e + i)
			tab.lower(k, 1)
			stale = append(stale, k)
		}
		tab.reset()
	}
	tab.epoch = math.MaxUint32 - 2
	wrapped := false
	for step := 0; step < 6; step++ {
		tab.reset()
		if tab.epoch == 0 {
			t.Fatal("epoch 0 is reserved for fresh slots")
		}
		wrapped = wrapped || tab.epoch < 10
		// One live entry, so get probes rather than short-circuiting on
		// an empty table.
		fresh := packedTestKey(1000 + step)
		if !tab.lower(fresh, 2) || tab.lower(fresh, 3) {
			t.Fatalf("step %d (epoch %d): lower misbehaves after the jump", step, tab.epoch)
		}
		for _, k := range stale {
			if _, ok := tab.get(k); ok {
				t.Fatalf("step %d (epoch %d): key %v from an older epoch hit", step, tab.epoch, k)
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
	tab := newEpochTable(hashString)
	for i := 0; i < 100; i++ {
		tab.lower(stringTestKey(i), float64(i))
	}
	tab.reset()
	before := len(tab.slots)
	for i := 1000; i < 1200; i++ {
		tab.lower(stringTestKey(i), float64(i))
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
		if _, ok := tab.get(stringTestKey(i)); ok {
			t.Fatalf("key %d from the previous epoch survived growth", i)
		}
	}
	for i := 1000; i < 1200; i++ {
		if g, ok := tab.get(stringTestKey(i)); !ok || g != float64(i) {
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
