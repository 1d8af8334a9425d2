package partition

import (
	"reflect"
	"sort"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
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

func TestEvaluateBV10(t *testing.T) {
	d := q20(1)
	res, err := Evaluate(d, workloads.BV(10), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.One.PST <= 0 || res.One.PST > 1 {
		t.Fatalf("one-copy PST = %v", res.One.PST)
	}
	for side := 0; side < 2; side++ {
		if len(res.Two[side].Qubits) != 10 {
			t.Fatalf("copy %d hosts %d qubits, want 10", side, len(res.Two[side].Qubits))
		}
	}
	// The two copies occupy disjoint qubit sets covering the machine.
	all := append(append([]int(nil), res.Two[0].Qubits...), res.Two[1].Qubits...)
	sort.Ints(all)
	for i, q := range all {
		if q != i {
			t.Fatalf("two-copy partition does not cover machine: %v", all)
		}
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
