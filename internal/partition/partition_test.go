package partition

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/graphx"
	"vaq/internal/sim"
	"vaq/internal/topo"
	"vaq/internal/workloads"
)

func q20(seed int64) *device.Device {
	arch := calib.Generate(calib.DefaultQ20Config(seed))
	return device.MustNew(arch.Topo, arch.MustMean())
}

func fastOpts() Options {
	return Options{
		Compile:    core.Options{Policy: core.VQAVQM},
		Sim:        sim.Config{Trials: 20000, Seed: 1},
		Candidates: 6,
	}
}

func TestEvaluateRejectsOversizedProgram(t *testing.T) {
	d := q20(1)
	prog := circuit.New("big", 11) // two copies need 22 > 20
	if _, err := Evaluate(d, prog, fastOpts()); err == nil {
		t.Fatal("11-qubit program accepted for two-copy study on Q20")
	}
}

func TestEvaluateRejectsEmptyProgram(t *testing.T) {
	if _, err := Evaluate(q20(1), circuit.New("empty", 0), fastOpts()); err == nil {
		t.Fatal("0-qubit program accepted for two-copy study")
	}
}

// TestEvaluateScoresEachRegionOnce counts compileAndSimulate calls on
// Figure 16's device: one for the full machine and one per distinct
// ordered region among the single-copy regions and the candidate sides,
// although each candidate's mirror asks for the same regions again.
func TestEvaluateScoresEachRegionOnce(t *testing.T) {
	d := q20(2019)
	opts := fastOpts()
	opts.Candidates = 10
	var full, calls int
	compileHook = func(sub *device.Device) {
		calls++
		if sub == d {
			full++
		}
	}
	defer func() { compileHook = nil }()
	if _, err := Evaluate(d, workloads.BV(10), opts); err != nil {
		t.Fatal(err)
	}

	cands, sg := rankedBipartitions(d, 10, opts.Candidates)
	regions := map[string]bool{}
	asked := 0
	if sg != nil {
		regions[fmt.Sprint(sg)] = true
		asked++
	}
	for _, cand := range cands {
		for _, side := range cand {
			regions[fmt.Sprint(side)] = true
			asked += 2 // once as a single-copy region, once as a copy
		}
	}
	if full != 1 || calls != 1+len(regions) {
		t.Fatalf("%d compiles (%d of the full machine), want 1 + %d distinct regions (%d asked for)",
			calls, full, len(regions), asked)
	}
}

func TestEvaluateBV10(t *testing.T) {
	d := q20(1)
	res, err := Evaluate(d, workloads.BV(10), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.One.PST <= 0 || res.One.PST > 1 {
		t.Fatalf("one-copy PST = %v", res.One.PST)
	}
	if res.OneSTPT <= 0 || res.TwoSTPT <= 0 {
		t.Fatalf("STPTs = %v / %v", res.OneSTPT, res.TwoSTPT)
	}
	// Winner consistency.
	if (res.Winner == OneStrongCopy) != (res.OneSTPT >= res.TwoSTPT) {
		t.Fatalf("winner %v inconsistent with STPTs %v vs %v", res.Winner, res.OneSTPT, res.TwoSTPT)
	}
}

func TestOneStrongCopyPSTAtLeastBestTwoCopy(t *testing.T) {
	// A single copy can use the strongest region of the whole machine, so
	// its PST should match or beat both constrained copies.
	d := q20(3)
	res, err := Evaluate(d, workloads.BV(10), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	bestTwo := res.Two[0].PST
	if res.Two[1].PST > bestTwo {
		bestTwo = res.Two[1].PST
	}
	// Allow Monte-Carlo noise of a few stderr.
	if res.One.PST < bestTwo*0.93 {
		t.Fatalf("one-copy PST %v well below best two-copy PST %v", res.One.PST, bestTwo)
	}
}

func TestExtremeVariationFavorsOneStrongCopy(t *testing.T) {
	// Make half the chip terrible: two copies force one copy onto the bad
	// half, so one strong copy must win on STPT (Figure 15's insight).
	tp := topo.IBMQ20()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		// Rows 0-1 (qubits 0..9) strong; rows 2-3 terrible.
		if c.A < 10 && c.B < 10 {
			s.TwoQubit[c] = 0.01
		} else {
			s.TwoQubit[c] = 0.35
		}
	}
	for q := 0; q < 20; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.02
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	d := device.MustNew(tp, s)
	prog := workloads.QFT(10) // SWAP-heavy: weak links are fatal
	res, err := Evaluate(d, prog, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != OneStrongCopy {
		t.Fatalf("winner = %v (one %v vs two %v), want one strong copy", res.Winner, res.OneSTPT, res.TwoSTPT)
	}
}

func TestUniformDeviceFavorsTwoCopies(t *testing.T) {
	// With no variation, both halves are equal, each copy's PST matches
	// the single copy's, and two copies deliver ~2x the trials: two-copy
	// mode must win.
	tp := topo.IBMQ20()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = 0.02
	}
	for q := 0; q < 20; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.02
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	d := device.MustNew(tp, s)
	res, err := Evaluate(d, workloads.BV(10), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != TwoCopies {
		t.Fatalf("winner = %v (one %v vs two %v), want two copies on a uniform machine",
			res.Winner, res.OneSTPT, res.TwoSTPT)
	}
}

func TestRankedBipartitionsShape(t *testing.T) {
	d := q20(5)
	cands, _ := rankedBipartitions(d, 10, 8)
	if len(cands) == 0 {
		t.Fatal("no bipartitions found on Q20")
	}
	if len(cands) > 8 {
		t.Fatalf("limit not applied: %d candidates", len(cands))
	}
	rel := d.ReliabilityGraph()
	for _, cand := range cands {
		if len(cand[0]) != 10 || len(cand[1]) != 10 {
			t.Fatalf("bad split sizes: %d/%d", len(cand[0]), len(cand[1]))
		}
		if !rel.Connected(cand[0]) || !rel.Connected(cand[1]) {
			t.Fatal("disconnected side in candidate bipartition")
		}
		// The two copies occupy disjoint qubit sets covering the machine.
		all := append(append([]int(nil), cand[0]...), cand[1]...)
		sort.Ints(all)
		for i, q := range all {
			if q != i {
				t.Fatalf("bipartition does not cover machine: %v", all)
			}
		}
	}
}

// TestRankedBipartitionsPinned pins the candidate order on Figure 16's
// device (the seed-2019 Q20 mean). Sides are scored on strengths summed in
// a fixed order, so a split and its mirror score identically and keep
// their visit order under the stable sort; this is one of the orders the
// map-order sums used to produce at random.
func TestRankedBipartitionsPinned(t *testing.T) {
	want := [][2][]int{
		{[]int{0, 1, 2, 5, 6, 7, 10, 11, 15, 16}, []int{3, 4, 8, 9, 12, 13, 14, 17, 18, 19}},
		{[]int{3, 4, 8, 9, 12, 13, 14, 17, 18, 19}, []int{0, 1, 2, 5, 6, 7, 10, 11, 15, 16}},
		{[]int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{[]int{0, 1, 2, 3, 5, 6, 7, 10, 11, 15}, []int{4, 8, 9, 12, 13, 14, 16, 17, 18, 19}},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}, []int{8, 9, 12, 13, 14, 15, 16, 17, 18, 19}},
		{[]int{8, 9, 12, 13, 14, 15, 16, 17, 18, 19}, []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}},
		{[]int{0, 1, 5, 6, 7, 10, 11, 15, 16, 17}, []int{2, 3, 4, 8, 9, 12, 13, 14, 18, 19}},
		{[]int{2, 3, 4, 8, 9, 12, 13, 14, 18, 19}, []int{0, 1, 5, 6, 7, 10, 11, 15, 16, 17}},
		{[]int{0, 1, 2, 5, 6, 10, 11, 12, 15, 16}, []int{3, 4, 7, 8, 9, 13, 14, 17, 18, 19}},
		{[]int{3, 4, 7, 8, 9, 13, 14, 17, 18, 19}, []int{0, 1, 2, 5, 6, 10, 11, 12, 15, 16}},
	}
	got, sg := rankedBipartitions(q20(2019), 10, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rankedBipartitions order changed:\n got %v\nwant %v", got, want)
	}
	// The unconstrained strongest region Evaluate reuses; its complement
	// is disconnected, so it is not a candidate.
	if wantSG := []int{1, 2, 3, 5, 6, 7, 8, 11, 12, 13}; !reflect.DeepEqual(sg, wantSG) {
		t.Fatalf("strongest subgraph %v, want %v", sg, wantSG)
	}
}

func TestModeString(t *testing.T) {
	if OneStrongCopy.String() != "one-strong-copy" || TwoCopies.String() != "two-copies" {
		t.Fatal("mode strings wrong")
	}
}

// unprunedEnumerate is the connected-set search without the
// expanded-set pruning: every seed regrows every subtree. It is the
// reference TestRankedBipartitionsMatchesUnprunedSearch holds
// enumerateConnected to.
func unprunedEnumerate(g *graphx.Graph, k, branch int, visit func([]int)) {
	type ext struct {
		v    int
		gain float64
	}
	for seed := range g.N() {
		in := make([]bool, g.N())
		var rec func(set []int)
		rec = func(set []int) {
			if len(set) == k {
				visit(set)
				return
			}
			var exts []ext
			listed := make([]bool, g.N())
			for _, u := range set {
				for _, v := range g.Neighbors(u) {
					if in[v] || listed[v] {
						continue
					}
					listed[v] = true
					gain := 0.0
					for _, x := range g.Neighbors(v) {
						if in[x] {
							w, _ := g.Weight(v, x)
							gain += w
						}
					}
					exts = append(exts, ext{v, gain})
				}
			}
			slices.SortFunc(exts, func(a, b ext) int { return cmp.Or(cmp.Compare(b.gain, a.gain), a.v-b.v) })
			if len(exts) > branch {
				exts = exts[:branch]
			}
			for _, e := range exts {
				in[e.v] = true
				rec(append(slices.Clip(set), e.v))
				in[e.v] = false
			}
		}
		in[seed] = true
		rec([]int{seed})
	}
}

// TestRankedBipartitionsMatchesUnprunedSearch checks that pruning
// repeated sets changes nothing: with a limit above the number of splits
// found, the whole ranked list matches the unpruned search's in content
// and order.
func TestRankedBipartitionsMatchesUnprunedSearch(t *testing.T) {
	type tc struct {
		name string
		d    *device.Device
		k    int
	}
	q16 := calib.Generate(calib.DefaultQ16Config(2019))
	cases := []tc{{"ibmq16", device.MustNew(q16.Topo, q16.MustMean()), 8}}
	for _, seed := range []int64{2019, 5, 7} {
		for _, k := range []int{4, 6, 10} {
			cases = append(cases, tc{fmt.Sprintf("q20-seed%d", seed), q20(seed), k})
		}
	}
	const limit = 1 << 20
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/k=%d", c.name, c.k), func(t *testing.T) {
			got, gotSG := rankedBipartitions(c.d, c.k, limit)
			want, wantSG := rankBipartitions(c.d, c.k, limit, unprunedEnumerate)
			if len(want) == 0 {
				t.Fatal("reference search found no bipartitions")
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSG, wantSG) {
				t.Fatalf("pruned search ranks %d splits, unpruned %d; lists differ", len(got), len(want))
			}
		})
	}
}

// BenchmarkRankedBipartitions ranks Figure 16's bipartitions: the
// seed-2019 Q20 mean, 10-qubit sides, top 10.
func BenchmarkRankedBipartitions(b *testing.B) {
	d := q20(2019)
	b.ReportAllocs()
	for b.Loop() {
		rankedBipartitions(d, 10, 10)
	}
}
