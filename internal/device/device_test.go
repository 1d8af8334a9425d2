package device

import (
	"math"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/gate"
	"vaq/internal/topo"
)

// testDevice builds a Tenerife device with uniform link error e.
func testDevice(t *testing.T, e float64) *Device {
	t.Helper()
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = e
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q] = 80
		s.T2Us[q] = 40
	}
	d, err := New(tp, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsMismatchedTopology(t *testing.T) {
	s := calib.NewSnapshot(topo.IBMQ5())
	if _, err := New(topo.IBMQ20(), s); err == nil {
		t.Fatal("mismatched topology accepted")
	}
}

func TestNewRejectsInvalidSnapshot(t *testing.T) {
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp) // T1/T2 all zero → invalid
	if _, err := New(tp, s); err == nil {
		t.Fatal("invalid snapshot accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(topo.IBMQ20(), calib.NewSnapshot(topo.IBMQ5()))
}

func TestSuccessProbabilities(t *testing.T) {
	d := testDevice(t, 0.1)
	if got := d.CNOTSuccess(0, 1); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("CNOTSuccess = %v, want 0.9", got)
	}
	if got := d.SwapSuccess(0, 1); math.Abs(got-0.9*0.9*0.9) > 1e-12 {
		t.Fatalf("SwapSuccess = %v, want 0.729", got)
	}
	if got := d.OneQubitSuccess(2); math.Abs(got-0.999) > 1e-12 {
		t.Fatalf("OneQubitSuccess = %v", got)
	}
	if got := d.ReadoutSuccess(4); math.Abs(got-0.97) > 1e-12 {
		t.Fatalf("ReadoutSuccess = %v", got)
	}
}

func TestSwapCostIsNegLogSuccess(t *testing.T) {
	d := testDevice(t, 0.05)
	cost := d.SwapCost(2, 3)
	if got := math.Exp(-cost); math.Abs(got-d.SwapSuccess(2, 3)) > 1e-12 {
		t.Fatalf("exp(-SwapCost) = %v, want %v", got, d.SwapSuccess(2, 3))
	}
	if cost <= 0 {
		t.Fatal("swap cost must be positive for nonzero error")
	}
}

func TestGateSuccessByClass(t *testing.T) {
	d := testDevice(t, 0.1)
	cases := []struct {
		k    gate.Kind
		qs   []int
		want float64
	}{
		{gate.Barrier, []int{0}, 1},
		{gate.I, []int{0}, 1},
		{gate.H, []int{0}, 0.999},
		{gate.CX, []int{0, 1}, 0.9},
		{gate.SWAP, []int{0, 1}, 0.729},
		{gate.Measure, []int{0}, 0.97},
	}
	for _, tc := range cases {
		if got := d.GateSuccess(tc.k, tc.qs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("GateSuccess(%v) = %v, want %v", tc.k, got, tc.want)
		}
	}
}

func TestCNOTSuccessNonCouplingPanics(t *testing.T) {
	d := testDevice(t, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("CNOTSuccess on non-coupling did not panic")
		}
	}()
	d.CNOTSuccess(0, 3) // 0 and 3 are not coupled on Tenerife
}

func TestHopDistance(t *testing.T) {
	d := testDevice(t, 0.1)
	hops := d.HopMatrix()
	if got := hops.Row(0)[3]; got != 2 {
		t.Fatalf("HopMatrix()[0][3] = %v, want 2", got)
	}
	if got := hops.Row(1)[1]; got != 0 {
		t.Fatalf("HopMatrix()[1][1] = %v, want 0", got)
	}
}

func TestCostDistanceUniformMatchesHops(t *testing.T) {
	d := testDevice(t, 0.1)
	perSwap := d.SwapCost(0, 1)
	hops, cost := d.HopMatrix(), d.CostMatrix()
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			want := hops.Row(a)[b] * perSwap
			if got := cost.Row(a)[b]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("CostMatrix()[%d][%d] = %v, want %v (uniform errors)", a, b, got, want)
			}
		}
	}
}

func TestCostDistancePrefersReliableDetour(t *testing.T) {
	// Ring of 5 (paper Fig. 1): direct 2-hop route with weak links vs
	// 3-hop route with strong links.
	tp := topo.Ring5()
	s := calib.NewSnapshot(tp)
	weak, strong := 0.25, 0.02
	s.SetTwoQubitError(0, 1, weak)
	s.SetTwoQubitError(1, 2, weak)
	s.SetTwoQubitError(0, 4, strong)
	s.SetTwoQubitError(3, 4, strong)
	s.SetTwoQubitError(2, 3, strong)
	for q := 0; q < 5; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	d := MustNew(tp, s)
	// Reliability distance from 0 to 2 should take the long way round.
	direct := 2 * d.SwapCost(0, 1)
	detour := d.SwapCost(0, 4) + d.SwapCost(4, 3) + d.SwapCost(3, 2)
	if detour >= direct {
		t.Fatal("test setup wrong: detour should be cheaper")
	}
	if got := d.CostMatrix().Row(0)[2]; math.Abs(got-detour) > 1e-9 {
		t.Fatalf("CostMatrix()[0][2] = %v, want detour cost %v", got, detour)
	}
}

func TestScaleReducesErrors(t *testing.T) {
	d := testDevice(t, 0.1)
	scaled := d.Scale(0.1, 1)
	if got := scaled.Snapshot().MustTwoQubitError(0, 1); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("scaled link error = %v, want 0.01", got)
	}
	// Original unchanged.
	if got := d.Snapshot().MustTwoQubitError(0, 1); got != 0.1 {
		t.Fatal("Scale mutated the original device")
	}
}

func TestGraphCaching(t *testing.T) {
	d := testDevice(t, 0.1)
	if d.HopGraph() != d.HopGraph() {
		t.Fatal("HopGraph not cached")
	}
	if d.CostGraph() != d.CostGraph() {
		t.Fatal("CostGraph not cached")
	}
	if d.HopMatrix() != d.HopMatrix() || &d.HopMatrix().Row(0)[0] != &d.HopMatrix().Row(0)[0] {
		t.Fatal("HopMatrix not cached")
	}
	if d.CostMatrix() != d.CostMatrix() || &d.CostMatrix().Row(0)[0] != &d.CostMatrix().Row(0)[0] {
		t.Fatal("CostMatrix not cached")
	}
}

func TestReliabilityGraphWeights(t *testing.T) {
	d := testDevice(t, 0.1)
	g := d.ReliabilityGraph()
	if w, ok := g.Weight(0, 1); !ok || math.Abs(w-0.9) > 1e-12 {
		t.Fatalf("reliability weight = %v,%v", w, ok)
	}
}

func TestSwapOverheadCost(t *testing.T) {
	d := testDevice(t, 0.05)
	got := d.SwapOverheadCost()
	// 5 qubits × (1/80 + 1/40) per µs × 0.9µs × duty 0.05.
	want := 0.05 * 0.9 * 5 * (1.0/80 + 1.0/40)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SwapOverheadCost = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Fatal("overhead must be positive")
	}
}
