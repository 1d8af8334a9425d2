package statevec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/circuit"
	"vaq/internal/gate"
	"vaq/internal/workloads"
)

const eps = 1e-9

func TestNewIsGroundState(t *testing.T) {
	s := New(3)
	if idx, ok := s.BasisState(); !ok || idx != 0 {
		t.Fatalf("fresh state = basis %d (ok=%v), want 0", idx, ok)
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Fatalf("norm = %v", s.Norm())
	}
}

func TestNewBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestXFlipsBit(t *testing.T) {
	s := New(2)
	s.Apply(circuit.NewGate1(gate.X, 1))
	if idx, ok := s.BasisState(); !ok || idx != 2 {
		t.Fatalf("X|00> = basis %d, want 2 (bit 1 set)", idx)
	}
	if p := s.Probability(1); math.Abs(p-1) > eps {
		t.Fatalf("P(q1=1) = %v", p)
	}
}

func TestHSuperposition(t *testing.T) {
	s := New(1)
	s.Apply(circuit.NewGate1(gate.H, 0))
	if p := s.Probability(0); math.Abs(p-0.5) > eps {
		t.Fatalf("P = %v, want 0.5", p)
	}
	if _, ok := s.BasisState(); ok {
		t.Fatal("superposition misreported as basis state")
	}
}

func TestBellState(t *testing.T) {
	c := circuit.New("bell", 2).H(0).CX(0, 1)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// Amplitudes: (|00>+|11>)/√2.
	if math.Abs(real(s.amp[0])-1/math.Sqrt2) > eps || math.Abs(real(s.amp[3])-1/math.Sqrt2) > eps {
		t.Fatalf("Bell amplitudes wrong: %v", s.amp)
	}
	if cmplx.Abs(s.amp[1]) > eps || cmplx.Abs(s.amp[2]) > eps {
		t.Fatalf("Bell cross terms nonzero: %v", s.amp)
	}
}

func TestHZHEqualsX(t *testing.T) {
	a, _ := Run(circuit.New("hzh", 1).H(0).Z(0).H(0))
	b, _ := Run(circuit.New("x", 1).X(0))
	if f := Fidelity(a, b); math.Abs(f-1) > eps {
		t.Fatalf("fidelity(HZH, X) = %v", f)
	}
}

func TestTEighthTurn(t *testing.T) {
	// T² = S; S² = Z.
	a, _ := Run(circuit.New("t", 1).H(0).T(0).T(0).T(0).T(0))
	b, _ := Run(circuit.New("z", 1).H(0).Z(0))
	if f := Fidelity(a, b); math.Abs(f-1) > eps {
		t.Fatalf("T^4 != Z (fidelity %v)", f)
	}
	c, _ := Run(circuit.New("ts", 1).H(0).T(0).Tdg(0))
	d, _ := Run(circuit.New("h", 1).H(0))
	if f := Fidelity(c, d); math.Abs(f-1) > eps {
		t.Fatalf("T·Tdg != I (fidelity %v)", f)
	}
}

func TestRotationIdentities(t *testing.T) {
	// RZ(π) ≡ Z, RX(π) ≡ X, RY(π) ≡ Y — up to global phase, which
	// fidelity ignores.
	pairs := []struct {
		rot  *circuit.Circuit
		ref  *circuit.Circuit
		name string
	}{
		{circuit.New("rz", 1).H(0).RZ(math.Pi, 0), circuit.New("z", 1).H(0).Z(0), "RZ(pi)=Z"},
		{circuit.New("rx", 1).H(0).RX(math.Pi, 0), circuit.New("x", 1).H(0).X(0), "RX(pi)=X"},
		{circuit.New("ry", 1).H(0).RY(math.Pi, 0), circuit.New("y", 1).H(0).Y(0), "RY(pi)=Y"},
	}
	for _, p := range pairs {
		a, err := Run(p.rot)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p.ref)
		if err != nil {
			t.Fatal(err)
		}
		if f := Fidelity(a, b); math.Abs(f-1) > eps {
			t.Errorf("%s: fidelity %v", p.name, f)
		}
	}
}

func TestU1MatchesRZUpToPhase(t *testing.T) {
	a, _ := Run(circuit.New("u1", 1).H(0).U1(0.7, 0))
	b, _ := Run(circuit.New("rz", 1).H(0).RZ(0.7, 0))
	if f := Fidelity(a, b); math.Abs(f-1) > eps {
		t.Fatalf("U1 vs RZ fidelity = %v", f)
	}
}

func TestSwapMovesAmplitude(t *testing.T) {
	s, _ := Run(circuit.New("s", 3).X(0).Swap(0, 2))
	if idx, ok := s.BasisState(); !ok || idx != 4 {
		t.Fatalf("after swap basis = %d, want 4", idx)
	}
}

func TestCZPhase(t *testing.T) {
	a, _ := Run(circuit.New("cz", 2).H(0).H(1).CZ(0, 1))
	b, _ := Run(circuit.New("czr", 2).H(0).H(1).CZ(1, 0))
	if f := Fidelity(a, b); math.Abs(f-1) > eps {
		t.Fatalf("CZ asymmetric: fidelity %v", f)
	}
	// |11> amplitude negated.
	if real(a.amp[3]) > 0 {
		t.Fatalf("CZ did not negate |11>: %v", a.amp)
	}
}

func TestRunRejectsFoldedGates(t *testing.T) {
	c := circuit.New("u3", 1)
	g := circuit.NewGate1(gate.U3, 0)
	g.Param = 1
	c.Append(g)
	if _, err := Run(c); err == nil {
		t.Fatal("U3 accepted by state-vector simulator")
	}
	if _, err := Run(workloads.QFT(4)); err != nil {
		t.Fatalf("QFT should replay (u1-based): %v", err)
	}
}

func TestALUAdderArithmetic(t *testing.T) {
	// The decisive benchmark-generator test: the Cuccaro ALU kernel loads
	// a=5, b=3 and adds a into b twice, so the final state must be the
	// basis state with a=5, b=13, carries clear.
	s, err := Run(workloads.ALU())
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := s.BasisState()
	if !ok {
		t.Fatal("ALU final state is not a basis state — adder corrupts the register")
	}
	bit := func(pos int) int { return (idx >> pos) & 1 }
	a := bit(1) | bit(3)<<1 | bit(5)<<2 | bit(7)<<3
	b := bit(2) | bit(4)<<1 | bit(6)<<2 | bit(8)<<3
	if a != 5 {
		t.Errorf("register a = %d, want 5 (unchanged)", a)
	}
	if b != 13 {
		t.Errorf("register b = %d, want 13 (3+5+5)", b)
	}
	if bit(0) != 0 || bit(9) != 0 {
		t.Errorf("carry bits set: cin=%d cout=%d", bit(0), bit(9))
	}
}

func TestQFTSpectrum(t *testing.T) {
	// QFT of |0…0⟩ is the uniform superposition: every probability equal.
	s, err := Run(workloads.QFT(5))
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 32
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if math.Abs(p-want) > 1e-9 {
			t.Fatalf("QFT amplitude %d probability %v, want uniform %v", i, p, want)
		}
	}
}

func TestBVStateVector(t *testing.T) {
	// BV's data register must deterministically hold the all-ones secret.
	s, err := Run(workloads.BV(6))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5; q++ {
		if p := s.Probability(q); math.Abs(p-1) > 1e-9 {
			t.Fatalf("BV data qubit %d P(1) = %v, want 1", q, p)
		}
	}
}

func TestNormPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		c := circuit.New("p", n)
		for i := 0; i < 30; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(7) {
			case 0:
				c.H(a)
			case 1:
				c.T(a)
			case 2:
				c.RZ(rng.Float64()*6-3, a)
			case 3:
				c.RX(rng.Float64()*6-3, a)
			case 4:
				c.CX(a, b)
			case 5:
				c.CZ(a, b)
			case 6:
				c.Swap(a, b)
			}
		}
		s, err := Run(c)
		if err != nil {
			return false
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseCircuitProperty(t *testing.T) {
	// Random circuit followed by its exact inverse returns to |0…0⟩.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		type op struct {
			k     gate.Kind
			a, b  int
			theta float64
		}
		var ops []op
		s := New(n)
		apply := func(o op, invert bool) {
			th := o.theta
			if invert {
				th = -th
			}
			switch o.k {
			case gate.H:
				s.apply1(o.a, invSqrt2, invSqrt2, invSqrt2, -invSqrt2)
			case gate.RZ:
				g := circuit.NewGate1(gate.RZ, o.a)
				g.Param = th
				s.Apply(g)
			case gate.CX:
				s.CX(o.a, o.b)
			case gate.S:
				if invert {
					s.Apply(circuit.NewGate1(gate.Sdg, o.a))
				} else {
					s.Apply(circuit.NewGate1(gate.S, o.a))
				}
			}
		}
		for i := 0; i < 20; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			o := op{k: []gate.Kind{gate.H, gate.RZ, gate.CX, gate.S}[rng.Intn(4)], a: a, b: b, theta: rng.Float64()*4 - 2}
			ops = append(ops, o)
			apply(o, false)
		}
		for i := len(ops) - 1; i >= 0; i-- {
			apply(ops[i], true)
		}
		idx, ok := s.BasisState()
		return ok && idx == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFidelityDifferentSizes(t *testing.T) {
	if Fidelity(New(2), New(3)) != 0 {
		t.Fatal("mismatched sizes should have zero fidelity")
	}
}

// Probability returns P(qubit q measures 1).
func (s *State) Probability(q int) float64 {
	s.check(q)
	mask := 1 << q
	p := 0.0
	for i, a := range s.amp {
		if i&mask != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// BasisState returns (index, true) when the state is a computational
// basis state up to global phase and numerical tolerance.
func (s *State) BasisState() (int, bool) {
	best, bestP := -1, 0.0
	total := 0.0
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		total += p
		if p > bestP {
			best, bestP = i, p
		}
	}
	if bestP > 0.999999*total {
		return best, true
	}
	return -1, false
}

// Norm returns ⟨s|s⟩ (should stay 1 within numerical error).
func (s *State) Norm() float64 {
	t := 0.0
	for _, a := range s.amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}
