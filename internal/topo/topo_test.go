package topo

import (
	"testing"
)

func TestIBMQ20Shape(t *testing.T) {
	q20 := IBMQ20()
	if q20.NumQubits != 20 {
		t.Fatalf("NumQubits = %d, want 20", q20.NumQubits)
	}
	if got := len(q20.Couplings); got != 38 {
		t.Fatalf("couplings = %d, want 38", got)
	}
	if got := q20.NumLinks(); got != 76 {
		t.Fatalf("NumLinks = %d, want 76 (paper's IBM-Q20 link count)", got)
	}
	if !q20.Graph(1).Connected(nil) {
		t.Fatal("IBM-Q20 must be connected")
	}
}

func TestIBMQ20PaperLinks(t *testing.T) {
	q20 := IBMQ20()
	// Links named in the paper's figures must exist.
	for _, pair := range [][2]int{{5, 6}, {5, 11}, {13, 19}, {14, 18}} {
		if !q20.Adjacent(pair[0], pair[1]) {
			t.Errorf("expected coupling %d-%d", pair[0], pair[1])
		}
	}
	// A few non-edges.
	for _, pair := range [][2]int{{0, 19}, {0, 6}, {4, 5}} {
		if q20.Adjacent(pair[0], pair[1]) {
			t.Errorf("unexpected coupling %d-%d", pair[0], pair[1])
		}
	}
}

func TestIBMQ5Shape(t *testing.T) {
	q5 := IBMQ5()
	if q5.NumQubits != 5 || len(q5.Couplings) != 6 {
		t.Fatalf("Q5: qubits=%d couplings=%d, want 5/6", q5.NumQubits, len(q5.Couplings))
	}
	if !q5.Graph(1).Connected(nil) {
		t.Fatal("IBM-Q5 must be connected")
	}
	// Q2 is the bow-tie center: degree 4.
	if d := len(q5.Graph(1).Neighbors(2)); d != 4 {
		t.Fatalf("center degree = %d, want 4", d)
	}
}

func TestIBMQ16Shape(t *testing.T) {
	q16 := IBMQ16()
	if q16.NumQubits != 16 {
		t.Fatalf("Q16 qubits = %d, want 16", q16.NumQubits)
	}
	// 2×8 ladder: 2 rows × 7 horizontal + 8 rungs = 22 couplings.
	if len(q16.Couplings) != 22 {
		t.Fatalf("Q16 couplings = %d, want 22", len(q16.Couplings))
	}
	if !q16.Graph(1).Connected(nil) {
		t.Fatal("Q16 must be connected")
	}
	if !q16.Adjacent(0, 8) || !q16.Adjacent(7, 15) || q16.Adjacent(0, 15) {
		t.Fatal("Q16 ladder rungs wrong")
	}
}

func TestRing5(t *testing.T) {
	r := Ring5()
	g := r.Graph(1)
	for v := 0; v < 5; v++ {
		if len(g.Neighbors(v)) != 2 {
			t.Fatalf("ring degree of %d = %d, want 2", v, len(g.Neighbors(v)))
		}
	}
}

func TestGridShape(t *testing.T) {
	m := Mesh2x3()
	if m.NumQubits != 6 {
		t.Fatalf("mesh qubits = %d, want 6", m.NumQubits)
	}
	// 2x3 grid: 2 rows×2 horizontal + 3 vertical = 7 edges.
	if len(m.Couplings) != 7 {
		t.Fatalf("mesh couplings = %d, want 7", len(m.Couplings))
	}
	if !m.Adjacent(0, 1) || !m.Adjacent(0, 3) || m.Adjacent(0, 4) {
		t.Fatal("mesh adjacency wrong")
	}
}

func TestLinear(t *testing.T) {
	l := Linear(4)
	if len(l.Couplings) != 3 || !l.Graph(1).Connected(nil) {
		t.Fatalf("linear4 wrong: %+v", l)
	}
	if l.Adjacent(0, 2) {
		t.Fatal("non-neighbors adjacent on a chain")
	}
	if single := Linear(1); len(single.Couplings) != 0 || !single.Graph(1).Connected(nil) {
		t.Fatal("single-qubit chain should have no couplings and be connected")
	}
}

func TestFullyConnected(t *testing.T) {
	f := FullyConnected(5)
	if len(f.Couplings) != 10 {
		t.Fatalf("K5 couplings = %d, want 10", len(f.Couplings))
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if !f.Adjacent(i, j) {
				t.Fatalf("missing edge %d-%d", i, j)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 2, []Coupling{{0, 0}}); err == nil {
		t.Error("self-coupling accepted")
	}
	if _, err := New("bad", 2, []Coupling{{0, 5}}); err == nil {
		t.Error("out-of-range coupling accepted")
	}
	if _, err := New("bad", 3, []Coupling{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate (reversed) coupling accepted")
	}
	if _, err := New("bad", 2, []Coupling{{-1, 0}}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestNewNormalizesAndSorts(t *testing.T) {
	tp, err := New("n", 4, []Coupling{{3, 2}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Couplings[0] != (Coupling{0, 1}) || tp.Couplings[1] != (Coupling{2, 3}) {
		t.Fatalf("couplings not normalized/sorted: %v", tp.Couplings)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid topology")
		}
	}()
	MustNew("bad", 1, []Coupling{{0, 1}})
}

func TestGraphWeights(t *testing.T) {
	g := IBMQ5().Graph(0.25)
	if w, ok := g.Weight(0, 1); !ok || w != 0.25 {
		t.Fatalf("weight = %v,%v", w, ok)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
}

func TestAdjacentSymmetric(t *testing.T) {
	q := IBMQ20()
	for _, c := range q.Couplings {
		if !q.Adjacent(c.A, c.B) || !q.Adjacent(c.B, c.A) {
			t.Fatalf("adjacency not symmetric for %v", c)
		}
	}
}
