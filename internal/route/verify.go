package route

import (
	"fmt"

	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
)

// Verify checks that a routing result is a faithful compilation of the
// logical circuit onto the device:
//
//  1. Every two-qubit gate in the physical circuit (including inserted
//     SWAPs) acts across a real coupling link.
//  2. Replaying the physical circuit while tracking qubit movement
//     recovers, for every program qubit, exactly the original per-qubit
//     operation sequence (kind, partner program qubit for two-qubit gates,
//     parameter, classical bit). Dependency layering may interleave
//     independent gates differently, but per-qubit order is an invariant
//     of correct compilation.
//  3. The recorded Final mapping matches the replayed movement.
//  4. Every Movement index names a gate of the physical circuit.
func Verify(d *device.Device, logical *circuit.Circuit, res *Result) error {
	type op struct {
		kind    gate.Kind
		partner int // program-qubit partner for 2Q gates, -1 otherwise
		control bool
		param   float64
		cbit    int
	}
	perQubit := func(c *circuit.Circuit) ([][]op, error) {
		seq := make([][]op, logical.NumQubits)
		for _, g := range c.Gates {
			if g.Kind == gate.Barrier {
				continue
			}
			qs := g.Qubits
			if g.Kind.TwoQubit() {
				a, b := qs[0], qs[1]
				if a < 0 || b < 0 {
					return nil, fmt.Errorf("verify: 2Q gate on unoccupied physical qubit")
				}
				seq[a] = append(seq[a], op{kind: g.Kind, partner: b, control: true, param: g.Param, cbit: g.CBit})
				seq[b] = append(seq[b], op{kind: g.Kind, partner: a, control: false, param: g.Param, cbit: g.CBit})
			} else {
				q := qs[0]
				if q < 0 {
					return nil, fmt.Errorf("verify: 1Q gate on unoccupied physical qubit")
				}
				seq[q] = append(seq[q], op{kind: g.Kind, partner: -1, param: g.Param, cbit: g.CBit})
			}
		}
		return seq, nil
	}

	want, err := perQubit(logical)
	if err != nil {
		return err
	}

	// Replay the physical circuit, tracking the physical→program view.
	// SWAPs the router inserted (res.Movement) displace program qubits;
	// SWAPs belonging to the program itself are computation: they exchange
	// the labels' states in place, leaving the mapping untouched.
	progAt := res.Initial.Inverse(d.NumQubits())
	movement := make([]bool, len(res.Physical.Gates))
	for _, gi := range res.Movement {
		if gi < 0 || gi >= len(movement) {
			return fmt.Errorf("verify: movement index %d outside the %d physical gates", gi, len(movement))
		}
		movement[gi] = true
	}
	var got [][]op
	{
		seq := make([][]op, logical.NumQubits)
		for gi, g := range res.Physical.Gates {
			if g.Kind.TwoQubit() && !d.Topology().Adjacent(g.Qubits[0], g.Qubits[1]) {
				return fmt.Errorf("verify: %s uses non-coupled qubits %d,%d", g.Kind, g.Qubits[0], g.Qubits[1])
			}
			switch {
			case g.Kind == gate.SWAP && movement[gi]:
				a, b := g.Qubits[0], g.Qubits[1]
				progAt[a], progAt[b] = progAt[b], progAt[a]
			case g.Kind == gate.Barrier:
				// no-op
			default:
				if g.Kind.TwoQubit() {
					pa, pb := progAt[g.Qubits[0]], progAt[g.Qubits[1]]
					if pa < 0 || pb < 0 {
						return fmt.Errorf("verify: computation on unoccupied qubit")
					}
					seq[pa] = append(seq[pa], op{kind: g.Kind, partner: pb, control: true, param: g.Param, cbit: g.CBit})
					seq[pb] = append(seq[pb], op{kind: g.Kind, partner: pa, control: false, param: g.Param, cbit: g.CBit})
				} else {
					p := progAt[g.Qubits[0]]
					if p < 0 {
						return fmt.Errorf("verify: computation on unoccupied qubit %d", g.Qubits[0])
					}
					seq[p] = append(seq[p], op{kind: g.Kind, partner: -1, param: g.Param, cbit: g.CBit})
				}
			}
		}
		got = seq
	}

	for p := 0; p < logical.NumQubits; p++ {
		if len(want[p]) != len(got[p]) {
			return fmt.Errorf("verify: program qubit %d has %d ops, want %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if want[p][i] != got[p][i] {
				return fmt.Errorf("verify: program qubit %d op %d = %+v, want %+v", p, i, got[p][i], want[p][i])
			}
		}
	}

	// Final mapping consistency.
	for p, phys := range res.Final {
		if progAt[phys] != p {
			return fmt.Errorf("verify: final mapping says qubit %d at %d, replay disagrees", p, phys)
		}
	}
	return nil
}
