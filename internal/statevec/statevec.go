// Package statevec is a dense state-vector simulator for small circuits
// (≤ ~20 qubits): exact amplitudes, arbitrary single-qubit rotations, CX,
// CZ and SWAP. It complements the stabilizer simulator: stabilizer scales
// but is Clifford-only; statevec handles the paper's non-Clifford
// workloads (QFT's controlled phases, the ALU's Toffoli/T network) at
// sizes where 2^n amplitudes fit comfortably.
//
// The repository uses it for exact quantum verification of compiled
// non-Clifford programs (VerifyState in route's tests), for Quantum
// Volume heavy outputs and the VQA energy study, and to validate the
// benchmark generators themselves (the Cuccaro adder really adds; the
// QFT really produces the uniform-magnitude spectrum).
//
// Qubit q is bit q of the amplitude index (little-endian).
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"

	"vaq/internal/circuit"
	"vaq/internal/gate"
)

// MaxQubits bounds the allocation (2^24 amplitudes = 256 MiB); callers
// wanting exactness on bigger circuits must use the stabilizer simulator.
const MaxQubits = 24

// State is a normalized pure state on n qubits.
type State struct {
	n   int
	amp []complex128
}

// New returns |0…0⟩ on n qubits.
func New(n int) *State {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: qubit count %d out of (0,%d]", n, MaxQubits))
	}
	s := &State{n: n, amp: make([]complex128, 1<<n)}
	s.amp[0] = 1
	return s
}

// N returns the number of qubits.
func (s *State) N() int { return s.n }

func (s *State) check(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
	}
}

// apply1 multiplies the 2×2 matrix [[a,b],[c,d]] into qubit q.
func (s *State) apply1(q int, a, b, c, d complex128) {
	s.check(q)
	mask := 1 << q
	for i := 0; i < len(s.amp); i++ {
		if i&mask != 0 {
			continue
		}
		j := i | mask
		v0, v1 := s.amp[i], s.amp[j]
		s.amp[i] = a*v0 + b*v1
		s.amp[j] = c*v0 + d*v1
	}
}

// CX applies a controlled-NOT (control c, target t).
func (s *State) CX(c, t int) {
	s.check(c)
	s.check(t)
	if c == t {
		panic("statevec: CX with identical operands")
	}
	cm, tm := 1<<c, 1<<t
	for i := 0; i < len(s.amp); i++ {
		if i&cm != 0 && i&tm == 0 {
			j := i | tm
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// CZ applies a controlled-Z.
func (s *State) CZ(a, b int) {
	s.check(a)
	s.check(b)
	am, bm := 1<<a, 1<<b
	for i := 0; i < len(s.amp); i++ {
		if i&am != 0 && i&bm != 0 {
			s.amp[i] = -s.amp[i]
		}
	}
}

// Swap exchanges two qubits.
func (s *State) Swap(a, b int) {
	s.check(a)
	s.check(b)
	am, bm := 1<<a, 1<<b
	for i := 0; i < len(s.amp); i++ {
		if i&am != 0 && i&bm == 0 {
			j := i ^ am ^ bm
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

var invSqrt2 = complex(1/math.Sqrt2, 0)

// Apply applies one circuit gate (measurements and barriers are ignored;
// use Probabilities for readout). U2/U3 are rejected because the
// circuit IR folds their angles into one parameter.
func (s *State) Apply(g circuit.Gate) error {
	switch g.Kind {
	case gate.I, gate.Barrier, gate.Measure:
		return nil
	case gate.X:
		s.apply1(g.Qubits[0], 0, 1, 1, 0)
	case gate.Y:
		s.apply1(g.Qubits[0], 0, -1i, 1i, 0)
	case gate.Z:
		s.apply1(g.Qubits[0], 1, 0, 0, -1)
	case gate.H:
		s.apply1(g.Qubits[0], invSqrt2, invSqrt2, invSqrt2, -invSqrt2)
	case gate.S:
		s.apply1(g.Qubits[0], 1, 0, 0, 1i)
	case gate.Sdg:
		s.apply1(g.Qubits[0], 1, 0, 0, -1i)
	case gate.T:
		s.apply1(g.Qubits[0], 1, 0, 0, cmplx.Exp(1i*math.Pi/4))
	case gate.Tdg:
		s.apply1(g.Qubits[0], 1, 0, 0, cmplx.Exp(-1i*math.Pi/4))
	case gate.RZ:
		half := complex(g.Param/2, 0)
		s.apply1(g.Qubits[0], cmplx.Exp(-1i*half), 0, 0, cmplx.Exp(1i*half))
	case gate.U1:
		s.apply1(g.Qubits[0], 1, 0, 0, cmplx.Exp(1i*complex(g.Param, 0)))
	case gate.RX:
		c := complex(math.Cos(g.Param/2), 0)
		sn := complex(math.Sin(g.Param/2), 0)
		s.apply1(g.Qubits[0], c, -1i*sn, -1i*sn, c)
	case gate.RY:
		c := complex(math.Cos(g.Param/2), 0)
		sn := complex(math.Sin(g.Param/2), 0)
		s.apply1(g.Qubits[0], c, -sn, sn, c)
	case gate.CX:
		s.CX(g.Qubits[0], g.Qubits[1])
	case gate.CZ:
		s.CZ(g.Qubits[0], g.Qubits[1])
	case gate.SWAP:
		s.Swap(g.Qubits[0], g.Qubits[1])
	default:
		return fmt.Errorf("statevec: unsupported gate %s (folded multi-angle gates cannot be replayed)", g.Kind)
	}
	return nil
}

// Run applies every gate of the circuit to |0…0⟩.
func Run(c *circuit.Circuit) (*State, error) {
	if c.NumQubits > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits exceeds limit %d", c.NumQubits, MaxQubits)
	}
	n := c.NumQubits
	if n == 0 {
		n = 1
	}
	s := New(n)
	for _, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Probabilities returns the full measurement distribution over basis
// states (index order).
func (s *State) Probabilities() []float64 {
	out := make([]float64, len(s.amp))
	for i, a := range s.amp {
		out[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return out
}

// Fidelity returns |⟨a|b⟩|² for states on the same qubit count.
func Fidelity(a, b *State) float64 {
	if a.n != b.n {
		return 0
	}
	var ip complex128
	for i := range a.amp {
		ip += cmplx.Conj(a.amp[i]) * b.amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
