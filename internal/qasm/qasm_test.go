package qasm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vaq/internal/circuit"
	"vaq/internal/gate"
)

const ghz = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
`

func TestParseGHZ(t *testing.T) {
	c, err := Parse(ghz)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 || c.NumCBits != 3 {
		t.Fatalf("qubits=%d cbits=%d, want 3/3", c.NumQubits, c.NumCBits)
	}
	s := c.Stats()
	if s.OneQubit != 1 || s.TwoQubit != 2 || s.Measures != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if c.Gates[1].Kind != gate.CX || c.Gates[1].Qubits[0] != 0 || c.Gates[1].Qubits[1] != 1 {
		t.Fatalf("gate 1 = %v", c.Gates[1])
	}
}

func TestParseComments(t *testing.T) {
	src := "qreg q[2]; // register\n// full line comment\nh q[0]; cx q[0],q[1]; // trailing\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gates = %d, want 2", len(c.Gates))
	}
}

func TestParseParameterizedGates(t *testing.T) {
	src := `qreg q[1];
rz(pi/2) q[0];
rx(-pi/4) q[0];
u3(pi/2, 0, pi) q[0];
u1(2*pi) q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Gates[0].Param; math.Abs(got-math.Pi/2) > 1e-12 {
		t.Fatalf("rz param = %v, want pi/2", got)
	}
	if got := c.Gates[1].Param; math.Abs(got+math.Pi/4) > 1e-12 {
		t.Fatalf("rx param = %v, want -pi/4", got)
	}
	// u3 folds its three parameters by summation.
	if got := c.Gates[2].Param; math.Abs(got-(math.Pi/2+math.Pi)) > 1e-12 {
		t.Fatalf("u3 folded param = %v", got)
	}
	if got := c.Gates[3].Param; math.Abs(got-2*math.Pi) > 1e-12 {
		t.Fatalf("u1 param = %v, want 2pi", got)
	}
}

func TestParseBarrier(t *testing.T) {
	src := "qreg q[3];\nh q[0];\nbarrier q;\nh q[1];\nbarrier q[0],q[2];\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	barriers := 0
	for _, g := range c.Gates {
		if g.Kind == gate.Barrier {
			barriers++
		}
	}
	if barriers != 2 {
		t.Fatalf("barriers = %d, want 2", barriers)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no qreg", "h q[0];", "before qreg"},
		{"empty", "", "no qreg"},
		{"double qreg", "qreg q[2]; qreg r[2];", "multiple qreg"},
		{"double creg", "qreg q[1]; creg c[1]; creg d[1];", "multiple creg"},
		{"bad reg", "qreg q[];", "register"},
		{"zero reg", "qreg q[0];", "register"},
		{"unknown gate", "qreg q[2]; foo q[0];", "unknown gate"},
		{"bad arity", "qreg q[2]; cx q[0];", "expects 2 operands"},
		{"out of range", "qreg q[2]; h q[5];", "out of range"},
		{"dup operand", "qreg q[2]; cx q[1],q[1];", "duplicate"},
		{"measure no creg", "qreg q[1]; measure q[0] -> c[0];", "creg"},
		{"measure bad cbit", "qreg q[1]; creg c[1]; measure q[0] -> c[3];", "out of range"},
		{"measure malformed", "qreg q[1]; creg c[1]; measure q[0];", "->"},
		{"wrong register", "qreg q[2]; h r[0];", "unknown register"},
		{"missing param", "qreg q[1]; rz q[0];", "parameter"},
		{"extra param", "qreg q[1]; h(0.5) q[0];", "no parameters"},
		{"bad expr", "qreg q[1]; rz(1+*) q[0];", "bad token"},
		{"free symbol", "qreg q[1]; rz(zap) q[0];", "unbound symbolic parameters"},
		{"div by zero", "qreg q[1]; rz(1/0) q[0];", "division by zero"},
		{"unbalanced", "qreg q[1]; rz)1( q[0];", "unbalanced"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.wantSub)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse("qreg q[2];\nh q[0];\ncx q[0];\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("error line = %d, want 3", pe.Line)
	}
}

func TestEvalExprPrecedence(t *testing.T) {
	cases := map[string]float64{
		"1+2*3":     7,
		"(1+2)*3":   9,
		"-pi":       -math.Pi,
		"pi/2":      math.Pi / 2,
		"2-3-4":     -5,
		"8/2/2":     2,
		"--3":       3,
		"1.5e2":     150,
		"2*(3+4)/7": 2,
	}
	for expr, want := range cases {
		got, err := evalSymbolic(expr, nil)
		if err != nil || !got.IsConst() {
			t.Errorf("evalSymbolic(%q) = %v, %v; want a constant", expr, got, err)
			continue
		}
		if math.Abs(got.Const-want) > 1e-12 {
			t.Errorf("evalSymbolic(%q) = %v, want %v", expr, got.Const, want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	for _, expr := range []string{"", "1+", "(1", "1 2", "foo", "1@2"} {
		if got, err := evalSymbolic(expr, nil); err == nil && got.IsConst() {
			t.Errorf("evalSymbolic(%q) = %v, want an error or a free symbol", expr, got.Const)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	orig, err := Parse(ghz)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(Serialize(orig))
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, Serialize(orig))
	}
	if len(again.Gates) != len(orig.Gates) {
		t.Fatalf("round trip gates %d != %d", len(again.Gates), len(orig.Gates))
	}
	for i := range orig.Gates {
		a, b := orig.Gates[i], again.Gates[i]
		if a.Kind != b.Kind || a.CBit != b.CBit || len(a.Qubits) != len(b.Qubits) {
			t.Fatalf("gate %d mismatch: %v vs %v", i, a, b)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Fatalf("gate %d operand %d mismatch", i, j)
			}
		}
	}
}

func TestSerializeRoundTripRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		c := circuit.New("rand", n)
		for i := 0; i < 25; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(6) {
			case 0:
				c.H(a)
			case 1:
				c.X(a)
			case 2:
				c.RZ(rng.Float64()*2-1, a)
			case 3:
				c.CX(a, b)
			case 4:
				c.Swap(a, b)
			case 5:
				c.T(a)
			}
		}
		c.MeasureAll()
		again, err := Parse(Serialize(c))
		if err != nil {
			return false
		}
		if len(again.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if c.Gates[i].Kind != again.Gates[i].Kind {
				return false
			}
			if math.Abs(c.Gates[i].Param-again.Gates[i].Param) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeBarrier(t *testing.T) {
	c := circuit.New("b", 2).H(0).Barrier().CX(0, 1)
	out := Serialize(c)
	if !strings.Contains(out, "barrier q[0],q[1];") {
		t.Fatalf("missing barrier in:\n%s", out)
	}
}
