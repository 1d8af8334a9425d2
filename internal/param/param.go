// Package param adds symbolic parameters to circuits: the missing piece
// between the paper's compile-per-circuit world and variational (VQA)
// workloads, where one ansatz is executed thousands of times with
// different rotation angles. A Symbol names a free angle; an Expr is the
// affine form c·θ + k (linear combinations of symbols plus a constant —
// the only arithmetic OpenQASM benchmarks apply to parameters); a
// ParametricCircuit pairs an ordinary circuit.Circuit template with the
// expressions occupying its parameterized gate slots.
//
// The central fact the whole plane rests on: the hardware error model is
// angle-independent. Gate success probabilities (device.GateSuccess),
// ESP ranking, routing costs and the Monte-Carlo trial stream never read
// Gate.Param, so allocation, routing, scheduling and PST estimation are
// identical for every binding of one template. Compile once, rebind
// many (package core's CompileParametric/Bound).
package param

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vaq/internal/circuit"
)

// Symbol is the name of one free parameter (e.g. "theta").
type Symbol string

// Term is one linear term c·θ of an expression.
type Term struct {
	Coeff float64
	Sym   Symbol
}

// Expr is an affine parameter expression: sum of Terms plus Const.
// Exprs are immutable values; the arithmetic constructors below keep
// them canonical (terms merged per symbol, zero terms dropped, sorted
// by symbol name), so structural equality is semantic equality.
type Expr struct {
	Terms []Term
	Const float64
}

// Const returns the constant expression k.
func Const(k float64) Expr { return Expr{Const: k} }

// Sym returns the expression 1·s.
func Sym(s Symbol) Expr { return Expr{Terms: []Term{{Coeff: 1, Sym: s}}} }

// canonical merges duplicate symbols, drops zero coefficients and sorts
// terms by symbol name.
func (e Expr) canonical() Expr {
	if len(e.Terms) == 0 {
		return e
	}
	sum := make(map[Symbol]float64, len(e.Terms))
	for _, t := range e.Terms {
		sum[t.Sym] += t.Coeff
	}
	syms := make([]Symbol, 0, len(sum))
	for s, c := range sum {
		if c != 0 {
			syms = append(syms, s)
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	terms := make([]Term, len(syms))
	for i, s := range syms {
		terms[i] = Term{Coeff: sum[s], Sym: s}
	}
	if len(terms) == 0 {
		terms = nil
	}
	return Expr{Terms: terms, Const: e.Const}
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr {
	return Expr{
		Terms: append(append([]Term(nil), e.Terms...), o.Terms...),
		Const: e.Const + o.Const,
	}.canonical()
}

// Scale returns c·e.
func (e Expr) Scale(c float64) Expr {
	terms := make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = Term{Coeff: c * t.Coeff, Sym: t.Sym}
	}
	return Expr{Terms: terms, Const: c * e.Const}.canonical()
}

// Neg returns −e.
func (e Expr) Neg() Expr { return e.Scale(-1) }

// IsConst reports whether e has no free symbols.
func (e Expr) IsConst() bool { return len(e.Terms) == 0 }

// Symbols returns the free symbols of e in term (sorted-name) order.
func (e Expr) Symbols() []Symbol {
	syms := make([]Symbol, len(e.Terms))
	for i, t := range e.Terms {
		syms[i] = t.Sym
	}
	return syms
}

// String renders the canonical affine form, e.g. "2*theta+-0.5" or
// "0.25". The rendering tokenizes back through the QASM expression
// grammar, which is what macro expansion relies on.
func (e Expr) String() string {
	var parts []string
	for _, t := range e.Terms {
		if t.Coeff == 1 {
			parts = append(parts, string(t.Sym))
			continue
		}
		parts = append(parts, strconv.FormatFloat(t.Coeff, 'g', -1, 64)+"*"+string(t.Sym))
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, strconv.FormatFloat(e.Const, 'g', -1, 64))
	}
	return strings.Join(parts, "+")
}

// UnboundError reports symbols required by an evaluation or binding that
// the supplied values do not cover.
type UnboundError struct {
	Missing []Symbol
}

func (e *UnboundError) Error() string {
	names := make([]string, len(e.Missing))
	for i, s := range e.Missing {
		names[i] = string(s)
	}
	return fmt.Sprintf("param: unbound symbols: %s", strings.Join(names, ", "))
}

// Eval evaluates e under the given symbol values. Every free symbol of e
// must be present; missing ones yield an *UnboundError.
func (e Expr) Eval(vals map[Symbol]float64) (float64, error) {
	v := e.Const
	var missing []Symbol
	for _, t := range e.Terms {
		x, ok := vals[t.Sym]
		if !ok {
			missing = append(missing, t.Sym)
			continue
		}
		v += t.Coeff * x
	}
	if missing != nil {
		return 0, &UnboundError{Missing: missing}
	}
	return v, nil
}

// ParametricCircuit is a circuit template with symbolic parameters: an
// ordinary circuit whose parameterized gate slots at the indices of
// Exprs are placeholders (Param = 0) to be filled by Bind. Gates not in
// Exprs are fully concrete, including parameterized gates with constant
// angles.
type ParametricCircuit struct {
	Circ  *circuit.Circuit
	Exprs map[int]Expr
}

// New wraps a circuit with an empty expression table.
func New(c *circuit.Circuit) *ParametricCircuit {
	return &ParametricCircuit{Circ: c, Exprs: map[int]Expr{}}
}

// SetParam assigns expression e to the parameter slot of gate i. Constant
// expressions are baked into the gate directly; symbolic ones zero the
// slot and join the expression table.
func (pc *ParametricCircuit) SetParam(i int, e Expr) {
	if e.IsConst() {
		delete(pc.Exprs, i)
		pc.Circ.Gates[i].Param = e.Const
		return
	}
	pc.Circ.Gates[i].Param = 0
	pc.Exprs[i] = e
}

// slots returns the expression-bearing gate indices in circuit order.
func (pc *ParametricCircuit) slots() []int {
	idx := make([]int, 0, len(pc.Exprs))
	for i := range pc.Exprs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// FreeSymbols returns the distinct free symbols in order of first use
// (gate order, then term order within a gate). This is the positional
// order BindValues and the sweep surfaces use, chosen over lexicographic
// sorting so "theta10" never jumps ahead of "theta2".
func (pc *ParametricCircuit) FreeSymbols() []Symbol {
	seen := map[Symbol]bool{}
	var syms []Symbol
	for _, i := range pc.slots() {
		for _, s := range pc.Exprs[i].Symbols() {
			if !seen[s] {
				seen[s] = true
				syms = append(syms, s)
			}
		}
	}
	return syms
}

// NumParams returns the number of free symbols.
func (pc *ParametricCircuit) NumParams() int { return len(pc.FreeSymbols()) }

// Bind produces a concrete circuit with every expression evaluated under
// vals. Every free symbol must be bound (*UnboundError otherwise), and
// every supplied symbol must be free — an unknown name is an error so a
// misspelled parameter cannot silently bind nothing.
func (pc *ParametricCircuit) Bind(vals map[Symbol]float64) (*circuit.Circuit, error) {
	free := pc.FreeSymbols()
	isFree := make(map[Symbol]bool, len(free))
	for _, s := range free {
		isFree[s] = true
	}
	var missing []Symbol
	for _, s := range free {
		if _, ok := vals[s]; !ok {
			missing = append(missing, s)
		}
	}
	if missing != nil {
		return nil, &UnboundError{Missing: missing}
	}
	for s := range vals {
		if !isFree[s] {
			return nil, fmt.Errorf("param: bind of unknown symbol %q (free: %v)", s, free)
		}
	}
	out := pc.Circ.Clone()
	for i, e := range pc.Exprs {
		v, err := e.Eval(vals)
		if err != nil {
			return nil, err
		}
		out.Gates[i].Param = v
	}
	return out, nil
}

// BindValues binds positionally: vals[i] is the value of FreeSymbols()[i].
func (pc *ParametricCircuit) BindValues(vals []float64) (*circuit.Circuit, error) {
	free := pc.FreeSymbols()
	if len(vals) != len(free) {
		return nil, fmt.Errorf("param: %d values for %d free symbols", len(vals), len(free))
	}
	m := make(map[Symbol]float64, len(free))
	for i, s := range free {
		m[s] = vals[i]
	}
	return pc.Bind(m)
}

// Sentinel values: routing and scheduling copy Gate.Param verbatim, so a
// parametric compile marks each symbolic slot with a distinct finite
// value that survives the pipeline and is recovered from the physical
// circuit afterwards. Sentinels are the smallest positive subnormals —
// unreachable by any realistic angle arithmetic yet ordinary floats that
// pass the route verifier's struct equality (NaN would not: NaN ≠ NaN).

// Sentinel returns the reserved placeholder for slot k.
func Sentinel(k int) float64 { return math.Float64frombits(uint64(k) + 1) }

// SentinelIndex decodes a placeholder back to its slot index; ok is
// false for any float outside the n reserved sentinels.
func SentinelIndex(p float64, n int) (int, bool) {
	bits := math.Float64bits(p)
	if bits >= 1 && bits <= uint64(n) {
		return int(bits - 1), true
	}
	return 0, false
}

// SentinelBind returns a concrete copy of the template whose i-th
// symbolic slot (circuit order) carries Sentinel(i), together with the
// expressions in the same order. It fails if any concrete parameterized
// gate already holds a value inside the reserved sentinel range — a
// collision would make slot recovery ambiguous.
func (pc *ParametricCircuit) SentinelBind() (*circuit.Circuit, []Expr, error) {
	idx := pc.slots()
	out := pc.Circ.Clone()
	exprs := make([]Expr, len(idx))
	for k, i := range idx {
		exprs[k] = pc.Exprs[i]
		out.Gates[i].Param = Sentinel(k)
	}
	for i, g := range out.Gates {
		if _, isSlot := pc.Exprs[i]; isSlot || !g.Kind.Parameterized() {
			continue
		}
		if _, ok := SentinelIndex(g.Param, len(idx)); ok {
			return nil, nil, fmt.Errorf("param: gate %d (%s) parameter %g collides with the reserved sentinel range", i, g.Kind, g.Param)
		}
	}
	return out, exprs, nil
}
