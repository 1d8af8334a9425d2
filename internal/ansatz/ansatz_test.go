package ansatz

import (
	"math"
	"testing"

	"vaq/internal/gate"
	"vaq/internal/param"
	"vaq/internal/statevec"
)

func TestEfficientSU2Shape(t *testing.T) {
	pc, err := EfficientSU2(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pc.NumParams(), 2*4*(2+1); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if pc.Circ.NumQubits != 4 {
		t.Fatalf("qubits = %d", pc.Circ.NumQubits)
	}
	cx, measures := 0, 0
	for _, g := range pc.Circ.Gates {
		switch g.Kind {
		case gate.CX:
			cx++
		case gate.Measure:
			measures++
		}
	}
	if cx != 2*3 || measures != 4 {
		t.Fatalf("cx = %d, measures = %d", cx, measures)
	}
	// Symbols appear in t0, t1, … order.
	free := pc.FreeSymbols()
	for i, s := range free[:3] {
		if want := param.Symbol("t" + string(rune('0'+i))); s != want {
			t.Fatalf("symbol %d = %q, want %q", i, s, want)
		}
	}
}

func TestQAOAShape(t *testing.T) {
	pc, err := QAOA(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pc.NumParams(), 2*3; got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	free := pc.FreeSymbols()
	want := []param.Symbol{"g0", "b0", "g1", "b1", "g2", "b2"}
	for i := range want {
		if free[i] != want[i] {
			t.Fatalf("FreeSymbols = %v, want %v", free, want)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"su2-6", "qaoa-6"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Circ.Gates) != len(b.Circ.Gates) {
			t.Fatalf("%s: gate counts differ", name)
		}
		for i := range a.Circ.Gates {
			ga, gb := a.Circ.Gates[i], b.Circ.Gates[i]
			if ga.Kind != gb.Kind || ga.Param != gb.Param {
				t.Fatalf("%s gate %d differs: %+v vs %+v", name, i, ga, gb)
			}
		}
	}
}

func TestByNameErrors(t *testing.T) {
	for _, name := range []string{"su2-1", "qaoa-2", "su2-x", "nope-4", "su2-99999"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) succeeded", name)
		}
	}
}

func TestParamsIntrospection(t *testing.T) {
	n, err := Params("su2-3")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * (DefaultReps + 1); n != want {
		t.Fatalf("Params(su2-3) = %d, want %d", n, want)
	}
}

// TestBoundAnsatzSimulates binds both families and replays them on the
// state-vector simulator: at all-zero angles su2 is the identity on
// |0…0⟩ up to the measurement layer, and qaoa leaves the uniform
// superposition intact.
func TestBoundAnsatzSimulates(t *testing.T) {
	su2, err := ByName("su2-3")
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, su2.NumParams())
	bound, err := su2.BindValues(zero)
	if err != nil {
		t.Fatal(err)
	}
	s, err := statevec.Run(bound)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probabilities()[0]; math.Abs(p-1) > 1e-9 {
		t.Fatalf("su2 at zero angles is not |000⟩: P(000) = %v", p)
	}

	qaoa, err := ByName("qaoa-3")
	if err != nil {
		t.Fatal(err)
	}
	bound, err = qaoa.BindValues(make([]float64, qaoa.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	s, err = statevec.Run(bound)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Probabilities() {
		if math.Abs(p-1.0/8) > 1e-9 {
			t.Fatalf("qaoa at zero angles amplitude %d = %v, want uniform 1/8", i, p)
		}
	}
}
