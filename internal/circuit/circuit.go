// Package circuit provides the quantum-circuit intermediate representation
// shared by the front-end, the mapping policies, and the fault-injection
// simulator: an ordered gate list over logical qubits, dependency layering
// (the "partition the program into layers of independent operations" step
// of the baseline compiler), interaction statistics used by allocation
// policies, and the SWAP → 3-CNOT lowering.
package circuit

import (
	"fmt"

	"vaq/internal/gate"
)

// Gate is one operation in a circuit. Qubits holds the operand qubit
// indices (1 entry for single-qubit gates and measurements, 2 for two-qubit
// gates, any number ≥ 1 for barriers). For CX, Qubits[0] is the control and
// Qubits[1] the target. Param carries the rotation angle of parameterized
// gates. CBit is the classical bit written by a Measure (−1 otherwise).
type Gate struct {
	Kind   gate.Kind
	Qubits []int
	Param  float64
	CBit   int
}

// NewGate1 returns a single-qubit gate.
func NewGate1(k gate.Kind, q int) Gate { return Gate{Kind: k, Qubits: []int{q}, CBit: -1} }

// NewGate2 returns a two-qubit gate.
func NewGate2(k gate.Kind, a, b int) Gate { return Gate{Kind: k, Qubits: []int{a, b}, CBit: -1} }

// NewMeasure returns a measurement of qubit q into classical bit c.
func NewMeasure(q, c int) Gate { return Gate{Kind: gate.Measure, Qubits: []int{q}, CBit: c} }

// String renders the gate in OpenQASM-like form.
func (g Gate) String() string {
	switch {
	case g.Kind == gate.Measure:
		return fmt.Sprintf("measure q[%d] -> c[%d]", g.Qubits[0], g.CBit)
	case g.Kind.Parameterized():
		return fmt.Sprintf("%s(%g) q[%d]", g.Kind, g.Param, g.Qubits[0])
	case len(g.Qubits) == 2:
		return fmt.Sprintf("%s q[%d],q[%d]", g.Kind, g.Qubits[0], g.Qubits[1])
	default:
		s := fmt.Sprintf("%s", g.Kind)
		for i, q := range g.Qubits {
			if i == 0 {
				s += fmt.Sprintf(" q[%d]", q)
			} else {
				s += fmt.Sprintf(",q[%d]", q)
			}
		}
		return s
	}
}

// Circuit is an ordered list of gates over NumQubits logical qubits and
// NumCBits classical bits.
type Circuit struct {
	Name      string
	NumQubits int
	NumCBits  int
	Gates     []Gate
}

// New returns an empty circuit.
func New(name string, numQubits int) *Circuit {
	if numQubits < 0 {
		panic(fmt.Sprintf("circuit: negative qubit count %d", numQubits))
	}
	return &Circuit{Name: name, NumQubits: numQubits}
}

// Append adds gates to the end of the circuit after validating operands.
func (c *Circuit) Append(gs ...Gate) *Circuit {
	for _, g := range gs {
		if err := c.validate(g); err != nil {
			panic(err)
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

func (c *Circuit) validate(g Gate) error {
	if !g.Kind.Valid() {
		return fmt.Errorf("circuit %q: invalid gate kind %d", c.Name, int(g.Kind))
	}
	if a := g.Kind.Arity(); a != 0 && len(g.Qubits) != a {
		return fmt.Errorf("circuit %q: %s expects %d qubits, got %d", c.Name, g.Kind, a, len(g.Qubits))
	}
	if g.Kind == gate.Barrier && len(g.Qubits) == 0 {
		return fmt.Errorf("circuit %q: barrier needs at least one qubit", c.Name)
	}
	seen := map[int]bool{}
	for _, q := range g.Qubits {
		if q < 0 || q >= c.NumQubits {
			return fmt.Errorf("circuit %q: qubit %d out of range [0,%d)", c.Name, q, c.NumQubits)
		}
		if seen[q] {
			return fmt.Errorf("circuit %q: duplicate operand qubit %d in %s", c.Name, q, g.Kind)
		}
		seen[q] = true
	}
	if g.Kind == gate.Measure {
		if g.CBit < 0 {
			return fmt.Errorf("circuit %q: measure with negative classical bit", c.Name)
		}
		if g.CBit >= c.NumCBits {
			c.NumCBits = g.CBit + 1
		}
	}
	return nil
}

// Convenience builders. Each returns the circuit for chaining.

func (c *Circuit) H(q int) *Circuit   { return c.Append(NewGate1(gate.H, q)) }
func (c *Circuit) X(q int) *Circuit   { return c.Append(NewGate1(gate.X, q)) }
func (c *Circuit) Y(q int) *Circuit   { return c.Append(NewGate1(gate.Y, q)) }
func (c *Circuit) Z(q int) *Circuit   { return c.Append(NewGate1(gate.Z, q)) }
func (c *Circuit) S(q int) *Circuit   { return c.Append(NewGate1(gate.S, q)) }
func (c *Circuit) Sdg(q int) *Circuit { return c.Append(NewGate1(gate.Sdg, q)) }
func (c *Circuit) T(q int) *Circuit   { return c.Append(NewGate1(gate.T, q)) }
func (c *Circuit) Tdg(q int) *Circuit { return c.Append(NewGate1(gate.Tdg, q)) }
func (c *Circuit) RZ(theta float64, q int) *Circuit {
	g := NewGate1(gate.RZ, q)
	g.Param = theta
	return c.Append(g)
}
func (c *Circuit) RX(theta float64, q int) *Circuit {
	g := NewGate1(gate.RX, q)
	g.Param = theta
	return c.Append(g)
}
func (c *Circuit) RY(theta float64, q int) *Circuit {
	g := NewGate1(gate.RY, q)
	g.Param = theta
	return c.Append(g)
}
func (c *Circuit) U1(lambda float64, q int) *Circuit {
	g := NewGate1(gate.U1, q)
	g.Param = lambda
	return c.Append(g)
}
func (c *Circuit) CX(ctrl, tgt int) *Circuit  { return c.Append(NewGate2(gate.CX, ctrl, tgt)) }
func (c *Circuit) CZ(a, b int) *Circuit       { return c.Append(NewGate2(gate.CZ, a, b)) }
func (c *Circuit) Swap(a, b int) *Circuit     { return c.Append(NewGate2(gate.SWAP, a, b)) }
func (c *Circuit) Measure(q, cb int) *Circuit { return c.Append(NewMeasure(q, cb)) }
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q, q)
	}
	return c
}
func (c *Circuit) Barrier(qs ...int) *Circuit {
	if len(qs) == 0 {
		qs = make([]int, c.NumQubits)
		for i := range qs {
			qs[i] = i
		}
	}
	return c.Append(Gate{Kind: gate.Barrier, Qubits: qs, CBit: -1})
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumCBits: c.NumCBits}
	out.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		qs := make([]int, len(g.Qubits))
		copy(qs, g.Qubits)
		out.Gates[i] = Gate{Kind: g.Kind, Qubits: qs, Param: g.Param, CBit: g.CBit}
	}
	return out
}

// Stats summarizes gate composition.
type Stats struct {
	Total    int // all gates except barriers
	OneQubit int
	TwoQubit int // CX + CZ + SWAP applications
	Swaps    int // SWAP applications
	CNOTs    int // physical CNOT count after SWAP lowering
	Measures int
	Depth    int // dependency depth (layers)
}

// Stats computes gate-composition statistics.
func (c *Circuit) Stats() Stats {
	var s Stats
	for _, g := range c.Gates {
		switch {
		case g.Kind == gate.Barrier:
			continue
		case g.Kind == gate.Measure:
			s.Measures++
		case g.Kind.TwoQubit():
			s.TwoQubit++
			if g.Kind == gate.SWAP {
				s.Swaps++
			}
		default:
			s.OneQubit++
		}
		s.Total++
		s.CNOTs += g.Kind.CNOTCost()
	}
	s.Depth = c.depth()
	return s
}
