// Compile-once/rebind-many: the parametric entry points of the core
// pipeline.
//
// The whole plane rests on one invariant, asserted here and proved by
// construction everywhere else: the hardware error model is
// angle-independent. device.GateSuccess keys on (gate kind, operands),
// never on Gate.Param; Best and Bound.ESP multiply those per-gate
// successes; the Monte-Carlo trial stream draws against the same rates.
// Allocation, routing and scheduling therefore produce identical
// results for every binding of one template, and the ESP/PST of a
// mapping is one number shared by the entire parameter sweep. Compiling
// a symbolic circuit once and rebinding per parameter set is exact, not
// an approximation.
//
// Mechanically, each symbolic slot is compiled carrying a distinct
// finite sentinel (param.Sentinel) in its Param field. Routers copy
// Param verbatim and never duplicate single-qubit gates, so after
// routing each sentinel appears exactly once in the physical circuit;
// scanning recovers the slot → physical-gate table that Rebind fills.
// Sentinels are ordinary floats, so route.Verify's struct equality and
// the schedule pass treat them like any other angle (NaN would break
// the verifier: NaN ≠ NaN).
package core

import (
	"fmt"

	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/param"
	"vaq/internal/sim"
)

// Bound is a parametric circuit compiled onto a device: the fixed
// mapping plus the slot table Rebind fills. One Bound amortizes a whole
// parameter sweep — Rebind is a clone-and-fill, three orders of
// magnitude cheaper than a compile.
type Bound struct {
	// Compiled is the underlying mapping; its Routed.Physical holds
	// sentinel placeholders in the symbolic slots.
	Compiled *Compiled
	// ESP is the analytic success probability of the mapping, shared by
	// every binding (the error model never reads angles).
	ESP float64

	exprs   []param.Expr // slot order = template gate order
	slots   []int        // physical gate index of each slot
	symbols []param.Symbol
}

// CompileParametric runs allocation, routing and verification once on
// the symbolic circuit and returns the reusable Bound handle.
// opts.Optimize is rejected: the transpile passes do angle arithmetic
// (rotation merging, zero-angle elimination) that would corrupt
// sentinel placeholders and change the slot structure per binding.
func CompileParametric(d *device.Device, pc *param.ParametricCircuit, opts Options) (*Bound, error) {
	if opts.Optimize {
		return nil, fmt.Errorf("core: parametric compilation cannot run the optimizer (transpile passes fold angles; compile with Optimize=false)")
	}
	sent, exprs, err := pc.SentinelBind()
	if err != nil {
		return nil, err
	}
	comp, err := Compile(d, sent, opts)
	if err != nil {
		return nil, err
	}

	// Recover the slot table: every sentinel must appear exactly once in
	// the physical circuit — a missing or duplicated sentinel means a
	// pipeline stage rewrote parameterized gates and the template cannot
	// be rebound.
	phys := comp.Routed.Physical
	slots := make([]int, len(exprs))
	for i := range slots {
		slots[i] = -1
	}
	for i, g := range phys.Gates {
		k, ok := param.SentinelIndex(g.Param, len(exprs))
		if !ok {
			continue
		}
		if !g.Kind.Parameterized() {
			continue
		}
		if slots[k] >= 0 {
			return nil, fmt.Errorf("core: sentinel %d appears twice in the physical circuit (gates %d and %d)", k, slots[k], i)
		}
		slots[k] = i
	}
	for k, idx := range slots {
		if idx < 0 {
			return nil, fmt.Errorf("core: sentinel %d lost during compilation (slot %s)", k, exprs[k])
		}
	}
	b := &Bound{
		Compiled: comp,
		ESP:      sim.AnalyticPST(d, phys, gatesOnly),
		exprs:    exprs,
		slots:    slots,
	}
	seen := map[param.Symbol]bool{}
	for _, e := range exprs {
		for _, s := range e.Symbols() {
			if !seen[s] {
				seen[s] = true
				b.symbols = append(b.symbols, s)
			}
		}
	}
	return b, nil
}

// Symbols returns the free symbols in slot-appearance order — the
// positional order RebindValues uses.
func (b *Bound) Symbols() []param.Symbol {
	return append([]param.Symbol(nil), b.symbols...)
}

// NumParams returns the number of free symbols.
func (b *Bound) NumParams() int { return len(b.symbols) }

// Rebind emits the mapped physical circuit with every slot evaluated
// under vals. The route, mapping and ESP are untouched — no allocator,
// router or cost-table work happens here.
func (b *Bound) Rebind(vals map[param.Symbol]float64) (*circuit.Circuit, error) {
	for _, s := range b.symbols {
		if _, ok := vals[s]; !ok {
			return nil, &param.UnboundError{Missing: []param.Symbol{s}}
		}
	}
	out := b.Compiled.Routed.Physical.Clone()
	for k, gi := range b.slots {
		v, err := b.exprs[k].Eval(vals)
		if err != nil {
			return nil, err
		}
		out.Gates[gi].Param = v
	}
	return out, nil
}

// RebindValues rebinds positionally: vals[i] is the value of
// Symbols()[i].
func (b *Bound) RebindValues(vals []float64) (*circuit.Circuit, error) {
	if len(vals) != len(b.symbols) {
		return nil, fmt.Errorf("core: %d values for %d free symbols", len(vals), len(b.symbols))
	}
	m := make(map[param.Symbol]float64, len(vals))
	for i, s := range b.symbols {
		m[s] = vals[i]
	}
	return b.Rebind(m)
}
