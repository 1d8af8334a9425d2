package qasm

import (
	"testing"
)

// FuzzParse drives the QASM parser with arbitrary source. Invariants: no
// panic; on success, a non-nil circuit whose serialization parses again
// (parse/serialize is a fixed point after one round).
//
// Crash-regression seeds live in testdata/fuzz/FuzzParse alongside the
// generated corpus, so past parser crashes stay covered by plain
// `go test` runs forever.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n",
		"OPENQASM 2.0;\nqreg q[2];\nrz(pi/4) q[1];\nswap q[0],q[1];\n",
		"qreg q[",                   // truncated declaration
		"h q[0];",                   // gate before any register
		"qreg q[3];\ncx q[0],q[0];", // two-qubit gate on one qubit
		"OPENQASM 2.0;\nqreg q[1];\nrz() q[0];",
		"\x00π->[](;",
		// Symbolic parameters: free symbols, declarations, affine forms,
		// the nonlinear rejection path, and a symbolic macro argument.
		"qreg q[2];\nrz(theta) q[0];\nu3(2*a, b, 0.5) q[1];\n",
		"parameter theta;\nqreg q[1];\nrz(-(theta/2)*3+pi) q[0];\n",
		"parameter a;\nparameter a;\nqreg q[1];\n",
		"qreg q[1];\nrz(a*b) q[0];\n",
		"qreg q[2];\ngate w(t) a { rz(2*t) a; }\nw(phi) q[1];\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// The parametric entry point must never panic either, and any
		// template it accepts must bind to a concrete circuit.
		if pc, perr := ParseParametric(src); perr == nil {
			vals := make([]float64, pc.NumParams())
			for i := range vals {
				vals[i] = 0.5
			}
			if _, berr := pc.BindValues(vals); berr != nil {
				t.Fatalf("accepted template does not bind: %v", berr)
			}
		}
		c, err := Parse(src)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("Parse returned nil circuit without error")
		}
		again, err := Parse(Serialize(c))
		if err != nil {
			t.Fatalf("serialized accepted circuit does not re-parse: %v", err)
		}
		if again.NumQubits != c.NumQubits {
			t.Fatalf("round trip changed qubit count: %d -> %d", c.NumQubits, again.NumQubits)
		}
	})
}
