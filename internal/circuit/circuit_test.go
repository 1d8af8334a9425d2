package circuit

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"vaq/internal/gate"
)

func TestBuilderChaining(t *testing.T) {
	c := New("demo", 3).H(0).CX(0, 1).CX(1, 2).MeasureAll()
	if len(c.Gates) != 6 {
		t.Fatalf("gate count = %d, want 6", len(c.Gates))
	}
	if c.NumCBits != 3 {
		t.Fatalf("NumCBits = %d, want 3", c.NumCBits)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range qubit accepted")
		}
	}()
	New("bad", 2).CX(0, 2)
}

func TestValidateRejectsDuplicateOperand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cx q,q accepted")
		}
	}()
	New("bad", 2).CX(1, 1)
}

func TestValidateRejectsWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity accepted")
		}
	}()
	New("bad", 2).Append(Gate{Kind: gate.CX, Qubits: []int{0}, CBit: -1})
}

func TestValidateRejectsInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid kind accepted")
		}
	}()
	New("bad", 1).Append(Gate{Kind: gate.Kind(99), Qubits: []int{0}})
}

func TestValidateRejectsEmptyBarrier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty explicit barrier accepted")
		}
	}()
	New("bad", 2).Append(Gate{Kind: gate.Barrier, CBit: -1})
}

func TestMeasureNegativeCBit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative classical bit accepted")
		}
	}()
	New("bad", 1).Measure(0, -1)
}

func TestGateString(t *testing.T) {
	cases := []struct {
		g    Gate
		want string
	}{
		{NewGate1(gate.H, 2), "h q[2]"},
		{NewGate2(gate.CX, 0, 1), "cx q[0],q[1]"},
		{NewMeasure(3, 1), "measure q[3] -> c[1]"},
	}
	for _, tc := range cases {
		if got := tc.g.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	rz := NewGate1(gate.RZ, 0)
	rz.Param = 0.5
	if got := rz.String(); !strings.Contains(got, "rz(0.5)") {
		t.Errorf("rz string = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New("orig", 2).H(0).CX(0, 1)
	d := c.Clone()
	d.Gates[0].Qubits[0] = 1
	d.X(0)
	if c.Gates[0].Qubits[0] != 0 {
		t.Fatal("clone shares qubit slices with original")
	}
	if len(c.Gates) != 2 {
		t.Fatal("clone append affected original")
	}
}

func TestLayersSimple(t *testing.T) {
	// h0; h1; cx(0,1); x0 → layers {h0,h1}, {cx}, {x0}
	c := New("l", 2).H(0).H(1).CX(0, 1).X(0)
	layers := c.Layers()
	want := [][]int{{0, 1}, {2}, {3}}
	if !reflect.DeepEqual(layers, want) {
		t.Fatalf("Layers() = %v, want %v", layers, want)
	}
}

func TestLayersParallelCNOTs(t *testing.T) {
	// cx(0,1) and cx(2,3) are independent → same layer.
	c := New("l", 4).CX(0, 1).CX(2, 3).CX(1, 2)
	layers := c.Layers()
	if len(layers) != 2 {
		t.Fatalf("depth = %d, want 2", len(layers))
	}
	if len(layers[0]) != 2 {
		t.Fatalf("layer 0 size = %d, want 2", len(layers[0]))
	}
}

func TestBarrierForcesOrdering(t *testing.T) {
	noBarrier := New("nb", 2).H(0).H(1)
	if d := len(noBarrier.Layers()); d != 1 {
		t.Fatalf("no-barrier depth = %d, want 1", d)
	}
	withBarrier := New("wb", 2).H(0).Barrier().H(1)
	layers := withBarrier.Layers()
	if len(layers) != 2 {
		t.Fatalf("barrier depth = %d, want 2", len(layers))
	}
}

func TestLayersPropertyNoQubitTwicePerLayer(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		c := New("rand", n)
		for i := 0; i < 40; i++ {
			a := rng.Intn(n)
			if rng.Float64() < 0.5 {
				c.H(a)
			} else {
				b := rng.Intn(n)
				if b == a {
					b = (a + 1) % n
				}
				c.CX(a, b)
			}
		}
		for _, layer := range c.Layers() {
			seen := map[int]bool{}
			for _, gi := range layer {
				for _, q := range c.Gates[gi].Qubits {
					if seen[q] {
						return false
					}
					seen[q] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLayersPropertyPreservesPerQubitOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		c := New("rand", n)
		for i := 0; i < 30; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
		layerOf := map[int]int{}
		for li, layer := range c.Layers() {
			for _, gi := range layer {
				layerOf[gi] = li
			}
		}
		if len(layerOf) != len(c.Gates) {
			return false
		}
		// For any two gates sharing a qubit, earlier index ⇒ earlier layer.
		for i := 0; i < len(c.Gates); i++ {
			for j := i + 1; j < len(c.Gates); j++ {
				if sharesQubit(c.Gates[i], c.Gates[j]) && layerOf[i] >= layerOf[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sharesQubit(a, b Gate) bool {
	for _, qa := range a.Qubits {
		for _, qb := range b.Qubits {
			if qa == qb {
				return true
			}
		}
	}
	return false
}

func TestInteractionCountsSymmetric(t *testing.T) {
	c := New("i", 3).CX(0, 1).CX(0, 1).CX(1, 2)
	m := c.InteractionCounts()
	if m[0][1] != 2 || m[1][0] != 2 {
		t.Fatalf("m[0][1]=%d m[1][0]=%d, want 2", m[0][1], m[1][0])
	}
	if m[1][2] != 1 || m[0][2] != 0 {
		t.Fatalf("unexpected interactions: %v", m)
	}
}

func TestActivityCounts(t *testing.T) {
	c := New("a", 3).CX(0, 1).CX(0, 1).CX(0, 2)
	all := c.ActivityCounts(0)
	if want := []int{3, 2, 1}; !reflect.DeepEqual(all, want) {
		t.Fatalf("ActivityCounts(all) = %v, want %v", all, want)
	}
	first := c.ActivityCounts(1)
	if want := []int{1, 1, 0}; !reflect.DeepEqual(first, want) {
		t.Fatalf("ActivityCounts(1) = %v, want %v", first, want)
	}
	// maxLayers beyond depth behaves like all layers.
	if got := c.ActivityCounts(99); !reflect.DeepEqual(got, all) {
		t.Fatalf("ActivityCounts(99) = %v, want %v", got, all)
	}
}

func TestStats(t *testing.T) {
	c := New("s", 3).H(0).CX(0, 1).Swap(1, 2).Measure(0, 0)
	s := c.Stats()
	if s.Total != 4 {
		t.Errorf("Total = %d, want 4", s.Total)
	}
	if s.OneQubit != 1 || s.TwoQubit != 2 || s.Swaps != 1 || s.Measures != 1 {
		t.Errorf("composition = %+v", s)
	}
	if s.CNOTs != 4 { // 1 CX + 3 from the SWAP
		t.Errorf("CNOTs = %d, want 4", s.CNOTs)
	}
	// h0 | cx(0,1) | {swap(1,2), measure(0)} → depth 3.
	if s.Depth != 3 {
		t.Errorf("Depth = %d, want 3", s.Depth)
	}
}

func TestStatsIgnoresBarriers(t *testing.T) {
	c := New("s", 2).H(0).Barrier().H(1)
	if s := c.Stats(); s.Total != 2 {
		t.Fatalf("Total = %d, want 2 (barrier not counted)", s.Total)
	}
}

func TestMeasureAllCBits(t *testing.T) {
	c := New("m", 3).MeasureAll()
	if c.NumCBits != 3 || len(c.Gates) != 3 {
		t.Fatalf("MeasureAll: cbits=%d gates=%d", c.NumCBits, len(c.Gates))
	}
}

func TestEmptyCircuit(t *testing.T) {
	c := New("e", 0)
	if len(c.Layers()) != 0 || c.Stats().Total != 0 || c.Stats().Depth != 0 {
		t.Fatal("empty circuit should have no layers, gates, or depth")
	}
}

func TestBuilderGateKinds(t *testing.T) {
	c := New("all", 2).
		Y(0).Z(0).S(0).Sdg(0).T(0).Tdg(0).
		RZ(0.1, 0).RX(0.2, 0).RY(0.3, 0).U1(0.4, 0).
		CZ(0, 1)
	wantKinds := []gate.Kind{
		gate.Y, gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg,
		gate.RZ, gate.RX, gate.RY, gate.U1, gate.CZ,
	}
	if len(c.Gates) != len(wantKinds) {
		t.Fatalf("gates = %d, want %d", len(c.Gates), len(wantKinds))
	}
	for i, k := range wantKinds {
		if c.Gates[i].Kind != k {
			t.Fatalf("gate %d = %v, want %v", i, c.Gates[i].Kind, k)
		}
	}
	for i, want := range map[int]float64{6: 0.1, 7: 0.2, 8: 0.3, 9: 0.4} {
		if c.Gates[i].Param != want {
			t.Fatalf("gate %d param = %v, want %v", i, c.Gates[i].Param, want)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative qubit count accepted")
		}
	}()
	New("bad", -1)
}

func TestMeasuredQubits(t *testing.T) {
	c := New("m", 3).H(0).Measure(1, 0)
	got := c.MeasuredQubits()
	if got[0] || !got[1] || got[2] {
		t.Fatalf("MeasuredQubits = %v", got)
	}
}

// TestDepthAndDurationMatchLayersProperty pins Stats().Depth to the
// layer lists it summarizes: the number of layers. (A trial's duration
// is the ASAP makespan, pinned in package schedule.)
func TestDepthAndDurationMatchLayersProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := New("rand", n)
		for i := 0; i < 40; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(6) {
			case 0:
				c.H(a)
			case 1:
				c.CX(a, b)
			case 2:
				c.Swap(a, b)
			case 3:
				c.Measure(a, a)
			case 4:
				c.Barrier(a, b)
			default:
				c.Barrier()
			}
		}
		return c.Stats().Depth == len(c.Layers())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
