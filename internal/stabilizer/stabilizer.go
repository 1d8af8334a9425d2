// Package stabilizer implements an Aaronson–Gottesman tableau simulator
// for Clifford circuits (H, S, S†, X, Y, Z, CX, CZ, SWAP, measurement).
//
// Several of the paper's benchmarks — Bernstein–Vazirani, GHZ, TriSwap —
// are Clifford circuits, so this simulator provides two capabilities the
// rest of the repository builds on:
//
//   - True quantum-semantic equivalence checking of compiled programs: a
//     routed physical circuit, un-permuted by its final mapping, must
//     prepare exactly the same stabilizer state as the logical circuit
//     (internal/route's replay check validates gate sequences; this
//     validates the quantum state itself).
//
//   - Faithful trial outcomes for the iterative NISQ execution model
//     (paper Figure 4): package trials runs the compiled circuit,
//     injecting Pauli faults drawn from the device's error rates, and
//     measures real bitstrings from the corrupted stabilizer state.
//
// Complexity is O(n²) per gate/measurement and O(n³) for canonicalization,
// ample for NISQ-scale n ≤ a few hundred.
package stabilizer

import (
	"fmt"
	"math/rand"
	"strings"

	"vaq/internal/circuit"
	"vaq/internal/gate"
)

// State is the tableau of a stabilizer state on n qubits: rows 0..n−1 are
// the destabilizer generators, rows n..2n−1 the stabilizer generators.
// Row i has X bits x[i], Z bits z[i] and a phase bit r[i] (1 ⇒ −1).
type State struct {
	n int
	x [][]bool
	z [][]bool
	r []bool
}

// New returns the state |0…0⟩ on n qubits: destabilizers X_i,
// stabilizers Z_i, all phases +1.
func New(n int) *State {
	if n <= 0 {
		panic(fmt.Sprintf("stabilizer: need at least one qubit, got %d", n))
	}
	s := &State{
		n: n,
		x: make([][]bool, 2*n),
		z: make([][]bool, 2*n),
		r: make([]bool, 2*n),
	}
	for i := 0; i < 2*n; i++ {
		s.x[i] = make([]bool, n)
		s.z[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		s.x[i][i] = true   // destabilizer X_i
		s.z[n+i][i] = true // stabilizer Z_i
	}
	return s
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := &State{n: s.n, x: make([][]bool, 2*s.n), z: make([][]bool, 2*s.n), r: append([]bool(nil), s.r...)}
	for i := 0; i < 2*s.n; i++ {
		c.x[i] = append([]bool(nil), s.x[i]...)
		c.z[i] = append([]bool(nil), s.z[i]...)
	}
	return c
}

func (s *State) check(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("stabilizer: qubit %d out of range [0,%d)", q, s.n))
	}
}

// H applies a Hadamard on qubit q.
func (s *State) H(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		s.r[i] = s.r[i] != (s.x[i][q] && s.z[i][q])
		s.x[i][q], s.z[i][q] = s.z[i][q], s.x[i][q]
	}
}

// S applies the phase gate on qubit q.
func (s *State) S(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		s.r[i] = s.r[i] != (s.x[i][q] && s.z[i][q])
		s.z[i][q] = s.z[i][q] != s.x[i][q]
	}
}

// Sdg applies the inverse phase gate (S³).
func (s *State) Sdg(q int) { s.S(q); s.S(q); s.S(q) }

// X applies a Pauli-X on qubit q (conjugation flips the sign of rows
// containing Z_q).
func (s *State) X(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		s.r[i] = s.r[i] != s.z[i][q]
	}
}

// Z applies a Pauli-Z on qubit q.
func (s *State) Z(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		s.r[i] = s.r[i] != s.x[i][q]
	}
}

// Y applies a Pauli-Y on qubit q.
func (s *State) Y(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		s.r[i] = s.r[i] != (s.x[i][q] != s.z[i][q])
	}
}

// CX applies a controlled-NOT with control c and target t.
func (s *State) CX(c, t int) {
	s.check(c)
	s.check(t)
	if c == t {
		panic("stabilizer: CX with identical control and target")
	}
	for i := 0; i < 2*s.n; i++ {
		// Phase rule: r ^= x_c & z_t & (x_t ⊕ z_c ⊕ 1).
		if s.x[i][c] && s.z[i][t] && (s.x[i][t] == s.z[i][c]) {
			s.r[i] = !s.r[i]
		}
		s.x[i][t] = s.x[i][t] != s.x[i][c]
		s.z[i][c] = s.z[i][c] != s.z[i][t]
	}
}

// CZ applies a controlled-Z between a and b.
func (s *State) CZ(a, b int) {
	s.H(b)
	s.CX(a, b)
	s.H(b)
}

// Swap exchanges qubits a and b.
func (s *State) Swap(a, b int) {
	s.CX(a, b)
	s.CX(b, a)
	s.CX(a, b)
}

// rowsum implements the Aaronson–Gottesman rowsum: row h ← row h · row i,
// tracking the global phase via the g function.
func (s *State) rowsum(h, i int) {
	// Phase exponent of the product, mod 4: 2*(r_h + r_i) + Σ g.
	phase := 0
	if s.r[h] {
		phase += 2
	}
	if s.r[i] {
		phase += 2
	}
	for j := 0; j < s.n; j++ {
		phase += g(s.x[i][j], s.z[i][j], s.x[h][j], s.z[h][j])
	}
	phase = ((phase % 4) + 4) % 4
	s.r[h] = phase == 2 // phase must be 0 or 2 for stabilizer rows
	for j := 0; j < s.n; j++ {
		s.x[h][j] = s.x[h][j] != s.x[i][j]
		s.z[h][j] = s.z[h][j] != s.z[i][j]
	}
}

// g returns the exponent of i contributed when multiplying single-qubit
// Paulis (x1,z1)·(x2,z2), per Aaronson–Gottesman.
func g(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1: // I
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MeasureZ measures qubit q in the computational basis. When the outcome
// is determined by the state, deterministic is true and rng is unused;
// otherwise the outcome is drawn from rng (fair coin) and the state
// collapses.
func (s *State) MeasureZ(q int, rng *rand.Rand) (outcome int, deterministic bool) {
	s.check(q)
	// Find a stabilizer row with x[q] set: outcome is random.
	p := -1
	for i := s.n; i < 2*s.n; i++ {
		if s.x[i][q] {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i < 2*s.n; i++ {
			if i != p && s.x[i][q] {
				s.rowsum(i, p)
			}
		}
		// Destabilizer row p−n becomes old stabilizer row p.
		copy(s.x[p-s.n], s.x[p])
		copy(s.z[p-s.n], s.z[p])
		s.r[p-s.n] = s.r[p]
		// New stabilizer: ±Z_q.
		for j := 0; j < s.n; j++ {
			s.x[p][j] = false
			s.z[p][j] = false
		}
		s.z[p][q] = true
		out := 0
		if rng == nil || rng.Intn(2) == 1 {
			out = 1
		}
		s.r[p] = out == 1
		return out, false
	}
	// Deterministic outcome: accumulate into a scratch row.
	scratch := s.scratchRow()
	for i := 0; i < s.n; i++ {
		if s.x[i][q] { // destabilizer anticommutes with Z_q
			s.rowsumScratch(scratch, s.n+i)
		}
	}
	if scratch.r {
		return 1, true
	}
	return 0, true
}

// scratch is a standalone row used by deterministic measurement.
type scratch struct {
	x, z []bool
	r    bool
}

func (s *State) scratchRow() *scratch {
	return &scratch{x: make([]bool, s.n), z: make([]bool, s.n)}
}

func (s *State) rowsumScratch(h *scratch, i int) {
	phase := 0
	if h.r {
		phase += 2
	}
	if s.r[i] {
		phase += 2
	}
	for j := 0; j < s.n; j++ {
		phase += g(s.x[i][j], s.z[i][j], h.x[j], h.z[j])
	}
	phase = ((phase % 4) + 4) % 4
	h.r = phase == 2
	for j := 0; j < s.n; j++ {
		h.x[j] = h.x[j] != s.x[i][j]
		h.z[j] = h.z[j] != s.z[i][j]
	}
}

// Apply applies one circuit gate. Measurements are not applied here (use
// MeasureZ); barriers are ignored. Non-Clifford gates return an error.
func (s *State) Apply(gt circuit.Gate) error {
	switch gt.Kind {
	case gate.I, gate.Barrier, gate.Measure:
		return nil
	case gate.H:
		s.H(gt.Qubits[0])
	case gate.S:
		s.S(gt.Qubits[0])
	case gate.Sdg:
		s.Sdg(gt.Qubits[0])
	case gate.X:
		s.X(gt.Qubits[0])
	case gate.Y:
		s.Y(gt.Qubits[0])
	case gate.Z:
		s.Z(gt.Qubits[0])
	case gate.CX:
		s.CX(gt.Qubits[0], gt.Qubits[1])
	case gate.CZ:
		s.CZ(gt.Qubits[0], gt.Qubits[1])
	case gate.SWAP:
		s.Swap(gt.Qubits[0], gt.Qubits[1])
	default:
		return fmt.Errorf("stabilizer: %s is not a Clifford gate", gt.Kind)
	}
	return nil
}

// Run applies every non-measurement gate of the circuit in order.
func Run(c *circuit.Circuit) (*State, error) {
	s := New(max(1, c.NumQubits))
	for _, gt := range c.Gates {
		if err := s.Apply(gt); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// IsClifford reports whether every gate in the circuit is Clifford (or a
// measurement/barrier).
func IsClifford(c *circuit.Circuit) bool {
	for _, gt := range c.Gates {
		switch gt.Kind {
		case gate.I, gate.Barrier, gate.Measure, gate.H, gate.S, gate.Sdg,
			gate.X, gate.Y, gate.Z, gate.CX, gate.CZ, gate.SWAP:
		default:
			return false
		}
	}
	return true
}

// String renders the stabilizer generators (for debugging).
func (s *State) String() string {
	var b strings.Builder
	for i := s.n; i < 2*s.n; i++ {
		if s.r[i] {
			b.WriteByte('-')
		} else {
			b.WriteByte('+')
		}
		for j := 0; j < s.n; j++ {
			switch {
			case s.x[i][j] && s.z[i][j]:
				b.WriteByte('Y')
			case s.x[i][j]:
				b.WriteByte('X')
			case s.z[i][j]:
				b.WriteByte('Z')
			default:
				b.WriteByte('I')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
