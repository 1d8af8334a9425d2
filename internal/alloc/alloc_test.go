package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/topo"
)

// uniformQ20 returns an IBM-Q20 device with uniform link error e.
func uniformQ20(t *testing.T, e float64) *device.Device {
	t.Helper()
	tp := topo.IBMQ20()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = e
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	return device.MustNew(tp, s)
}

// skewedQ5 returns a Tenerife device where the 3-4 link is strong and the
// 0-1 link is weak.
func skewedQ5(t *testing.T) *device.Device {
	t.Helper()
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp)
	rates := map[topo.Coupling]float64{
		{A: 0, B: 1}: 0.20,
		{A: 0, B: 2}: 0.10,
		{A: 1, B: 2}: 0.10,
		{A: 2, B: 3}: 0.04,
		{A: 2, B: 4}: 0.05,
		{A: 3, B: 4}: 0.02,
	}
	for c, e := range rates {
		s.TwoQubit[c] = e
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	return device.MustNew(tp, s)
}

func bell() *circuit.Circuit {
	return circuit.New("bell", 2).H(0).CX(0, 1).MeasureAll()
}

func TestMappingInverse(t *testing.T) {
	m := Mapping{3, 0, 2}
	inv := m.Inverse(5)
	want := []int{1, -1, 2, 0, -1}
	for i, v := range want {
		if inv[i] != v {
			t.Fatalf("Inverse = %v, want %v", inv, want)
		}
	}
}

func TestMappingValidate(t *testing.T) {
	if err := (Mapping{0, 1, 2}).Validate(5); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	if err := (Mapping{0, 0}).Validate(5); err == nil {
		t.Fatal("duplicate target accepted")
	}
	if err := (Mapping{0, 7}).Validate(5); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if err := (Mapping{-1}).Validate(5); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestMappingClone(t *testing.T) {
	m := Mapping{1, 2}
	c := m.Clone()
	c[0] = 9
	if m[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestAllPoliciesProduceValidMappings(t *testing.T) {
	d := uniformQ20(t, 0.05)
	prog := circuit.New("chain", 6)
	for i := 0; i+1 < 6; i++ {
		prog.CX(i, i+1)
	}
	policies := []Policy{Greedy{}, VQA{}, NewRandom(1)}
	for _, p := range policies {
		m, err := p.Allocate(d, prog)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(m) != prog.NumQubits {
			t.Fatalf("%s: mapping length %d, want %d", p.Name(), len(m), prog.NumQubits)
		}
		if err := m.Validate(d.NumQubits()); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestPoliciesRejectOversizedPrograms(t *testing.T) {
	d := skewedQ5(t)
	prog := circuit.New("big", 9)
	for _, p := range []Policy{Greedy{}, VQA{}, NewRandom(1)} {
		if _, err := p.Allocate(d, prog); err == nil {
			t.Fatalf("%s accepted a 9-qubit program on a 5-qubit machine", p.Name())
		}
	}
}

func TestGreedyPlacesInteractingQubitsAdjacent(t *testing.T) {
	d := uniformQ20(t, 0.05)
	m, err := Greedy{}.Allocate(d, bell())
	if err != nil {
		t.Fatal(err)
	}
	if hd := d.HopMatrix().Row(m[0])[m[1]]; hd != 1 {
		t.Fatalf("bell pair placed %v hops apart, want adjacent", hd)
	}
}

func TestGreedyKeepsChainLocal(t *testing.T) {
	d := uniformQ20(t, 0.05)
	prog := circuit.New("chain", 4).CX(0, 1).CX(1, 2).CX(2, 3)
	m, err := Greedy{}.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	hops := d.HopMatrix()
	total := 0.0
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		total += hops.Row(m[pair[0]])[m[pair[1]]]
	}
	// A good placement keeps each interacting pair within ~1–2 hops.
	if total > 5 {
		t.Fatalf("chain placement too spread out: total hop distance %v (mapping %v)", total, m)
	}
}

func TestVQAPicksStrongestLinkForBellPair(t *testing.T) {
	// On the skewed Tenerife, the 3–4 link (error 0.02) is strongest; a
	// two-qubit program must land on the strong triangle {2,3,4}, and the
	// interacting pair should use a strong link, not 0–1 (error 0.20).
	d := skewedQ5(t)
	m, err := VQA{}.Allocate(d, bell())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Topology().Adjacent(m[0], m[1]) {
		t.Fatalf("bell pair not adjacent: %v", m)
	}
	e := d.Snapshot().MustTwoQubitError(m[0], m[1])
	if e > 0.05 {
		t.Fatalf("VQA placed bell pair on link with error %v (mapping %v), want a strong link", e, m)
	}
}

func TestVQAAvoidsWeakRegionOnQ20(t *testing.T) {
	tp := topo.IBMQ20()
	s := calib.NewSnapshot(tp)
	// Left half of the chip strong, right half weak.
	for _, c := range tp.Couplings {
		if c.A%5 <= 1 && c.B%5 <= 2 {
			s.TwoQubit[c] = 0.02
		} else {
			s.TwoQubit[c] = 0.12
		}
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	d := device.MustNew(tp, s)
	prog := circuit.New("pair-heavy", 4).CX(0, 1).CX(0, 1).CX(2, 3).CX(0, 1)
	m, err := VQA{}.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	// The hot pair (0,1) must sit on a strong link.
	if !d.Topology().Adjacent(m[0], m[1]) {
		t.Fatalf("hot pair not adjacent: %v", m)
	}
	if e := d.Snapshot().MustTwoQubitError(m[0], m[1]); e > 0.05 {
		t.Fatalf("hot pair on weak link (error %v), mapping %v", e, m)
	}
}

func TestVQAActivityWindow(t *testing.T) {
	d := skewedQ5(t)
	// Qubit pair (0,1) is hot early; (2,3) hot later. A window of 1 layer
	// must rank 0 and 1 highest; both configurations must be valid.
	prog := circuit.New("phased", 4).CX(0, 1).CX(2, 3).CX(2, 3).CX(2, 3)
	early, err := VQA{ActivityLayers: 1}.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	full, err := VQA{}.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := early.Validate(d.NumQubits()); err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(d.NumQubits()); err != nil {
		t.Fatal(err)
	}
}

func TestVQAReadoutWeightAvoidsBadReadout(t *testing.T) {
	// A 2-qubit measured program on a triangle where every link is equal
	// but one qubit has terrible readout: the readout-aware VQA must
	// avoid it; the paper-faithful VQA has no reason to.
	tp := topo.FullyConnected(3)
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = 0.03
	}
	for q := 0; q < 3; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	s.Readout[0] = 0.40 // terrible readout on qubit 0
	d := device.MustNew(tp, s)
	prog := circuit.New("m", 2).CX(0, 1).MeasureAll()

	aware := VQA{ReadoutWeight: 3}
	m, err := aware.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	for p, phys := range m {
		if phys == 0 {
			t.Fatalf("readout-aware VQA placed measured qubit %d on bad-readout qubit 0 (mapping %v)", p, m)
		}
	}
	if aware.Name() != "vqa+readout" || (VQA{}).Name() != "vqa" {
		t.Fatal("VQA names wrong")
	}
}

func TestRandomIsSeededAndVaries(t *testing.T) {
	d := uniformQ20(t, 0.05)
	prog := circuit.New("p", 5)
	a1, _ := NewRandom(7).Allocate(d, prog)
	a2, _ := NewRandom(7).Allocate(d, prog)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different mappings")
		}
	}
	r := NewRandom(7)
	first, _ := r.Allocate(d, prog)
	varied := false
	for trial := 0; trial < 8 && !varied; trial++ {
		next, _ := r.Allocate(d, prog)
		for i := range first {
			if next[i] != first[i] {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("random policy produced identical mappings across calls")
	}
}

func TestRandomMappingsValidProperty(t *testing.T) {
	d := uniformQ20(t, 0.05)
	f := func(seed int64, nq uint8) bool {
		n := 1 + int(nq)%20
		prog := circuit.New("p", n)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10 && n > 1; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			prog.CX(a, b)
		}
		m, err := NewRandom(seed).Allocate(d, prog)
		if err != nil {
			return false
		}
		return m.Validate(d.NumQubits()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVQAFullMachineProgram(t *testing.T) {
	// k = 20 on a 20-qubit machine: the "strong subgraph" is the whole
	// chip; mapping must still be a permutation.
	d := uniformQ20(t, 0.05)
	prog := circuit.New("wide", 20)
	for i := 0; i+1 < 20; i++ {
		prog.CX(i, i+1)
	}
	m, err := VQA{}.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(20); err != nil {
		t.Fatal(err)
	}
}
