// Package route implements Qubit-Movement policies: given a circuit and an
// initial program→physical mapping, insert SWAP operations so every
// two-qubit gate executes across a real coupling link.
//
// Three routers are provided:
//
//   - AStar: the layer-by-layer search of Zulehner et al. (the paper's
//     baseline), parameterized by cost model. With CostHops it minimizes
//     the number of SWAPs (variation-unaware baseline); with
//     CostReliability it minimizes −log(success probability), which is the
//     paper's Variation-Aware Qubit Movement (VQM, Algorithm 1). The MAH
//     field implements the hop-limited VQM variant.
//
//   - Naive: route each CNOT independently along a shortest hop path,
//     modeling the IBM native compiler's movement strategy.
//
//   - Sabre: the SABRE heuristic (sabre.go), for devices beyond A*'s reach.
//
// All three emit through one emitter, which owns the output circuit and
// the mapping, and walk paths over the memoized distance rows of cache.go.
package route

import (
	"fmt"
	"slices"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/graphx"
)

// Result is a routed (physical) program.
type Result struct {
	// Physical is the compiled circuit over physical qubits, including the
	// inserted SWAPs. Measures carry their original classical bits.
	Physical *circuit.Circuit
	// Initial and Final are the program→physical mappings before and after
	// execution (inserted SWAPs displace qubits; the program's own SWAP
	// gates exchange label states in place and leave the mapping alone).
	Initial alloc.Mapping
	Final   alloc.Mapping
	// Swaps is the number of SWAP operations inserted for movement.
	Swaps int
	// Movement lists the indices into Physical.Gates of the inserted
	// movement SWAPs, distinguishing them from SWAP gates that belong to
	// the program itself (e.g. the TriSwap kernel).
	Movement []int
}

// Router inserts movement into a circuit under a fixed initial mapping.
type Router interface {
	Name() string
	Route(d *device.Device, c *circuit.Circuit, initial alloc.Mapping) (*Result, error)
}

// Lookahead parameters: how many future layers the SWAP search considers
// and the geometric decay of their weight. Matching Zulehner et al.'s
// lookahead scheme, this discourages layer-locally optimal routes that
// scatter qubits a later layer needs together.
const (
	lookaheadDepth = 4
	lookaheadDecay = 0.5
)

// CostModel selects the objective the A* router minimizes.
type CostModel int

const (
	// CostHops charges 1 per SWAP: the baseline's uniform-cost assumption.
	CostHops CostModel = iota
	// CostReliability charges −ln((1−e)³) per SWAP across a link with
	// error rate e: VQM's objective.
	CostReliability
)

func (cm CostModel) String() string {
	if cm == CostHops {
		return "hops"
	}
	return "reliability"
}

// AStar is the layer-by-layer SWAP-insertion search.
type AStar struct {
	Cost CostModel
	// MAH, when ≥ 0, limits the extra SWAPs per layer transition to the
	// minimum hop requirement plus MAH (the paper's Maximum Additional
	// Hops knob; the paper evaluates MAH=4). Negative means unlimited.
	MAH int
	// MaxExpansions caps the A* search per layer; 0 means the default
	// (50000). On exhaustion the router falls back to greedy path routing,
	// so compilation always succeeds on a connected machine.
	MaxExpansions int
}

func (r AStar) Name() string {
	switch {
	case r.Cost == CostHops:
		return "astar-hops"
	case r.MAH >= 0:
		return fmt.Sprintf("astar-reliability-mah%d", r.MAH)
	default:
		return "astar-reliability"
	}
}

// Route compiles c onto d starting from initial.
//
// The cost tables are memoized per (device fingerprint, cost model) — see
// cache.go — and every search buffer comes from a reused scratch, so in a
// warmed-up compile loop routing allocates only the output circuit.
func (r AStar) Route(d *device.Device, c *circuit.Circuit, initial alloc.Mapping) (*Result, error) {
	e, err := newEmitter(d, c, initial, r.Cost)
	if err != nil {
		return nil, err
	}
	cm := e.cm
	cm.ensureAdj() // the A* heuristic reads adjCost
	maxExp := r.MaxExpansions
	if maxExp <= 0 {
		maxExp = 50000
	}

	sc := getScratch()
	defer putScratch(sc)
	sc.setup(c.NumQubits, d.NumQubits())

	layers := c.Layers()
	sc.buildLayerPairs(func(li int) [][2]int { return layerPairs(c, layers[li]) }, len(layers))
	for li, layer := range layers {
		pairs := sc.layerPairsAt(li)
		// Lookahead (as in Zulehner et al.): bias this layer's SWAP choice
		// toward mappings that also keep the next layers' CNOT partners
		// close, with geometrically decaying weight. Purely a tie-breaker
		// in the search heuristic; the goal is still the current layer.
		sc.future = sc.future[:0]
		sc.futureW = sc.futureW[:0]
		weight := lookaheadDecay
		for lj := li + 1; lj < len(layers) && lj <= li+lookaheadDepth; lj++ {
			for _, pr := range sc.layerPairsAt(lj) {
				sc.future = append(sc.future, pr)
				sc.futureW = append(sc.futureW, weight)
			}
			weight *= lookaheadDecay
		}
		plan, ok := r.searchSwaps(cm, sc, e.m, pairs, sc.future, sc.futureW, maxExp)
		if ok {
			for _, sw := range plan {
				e.swap(sw)
			}
			for _, gi := range layer {
				e.gate(c.Gates[gi])
			}
			continue
		}
		// Search exhausted (expansion cap or infeasible MAH budget): fall
		// back to routing the layer's gates one at a time, which is always
		// correct on a connected machine.
		for _, gi := range layer {
			g := c.Gates[gi]
			if g.Kind.TwoQubit() {
				r.movePair(e, e.m[g.Qubits[0]], e.m[g.Qubits[1]])
			}
			e.gate(g)
		}
	}
	return e.result(), nil
}

// emitter builds one Route call's output for every router: the physical
// circuit, the program→physical mapping and its inverse, and the
// indices of the movement SWAPs it inserts.
type emitter struct {
	cm       *costs
	out      *circuit.Circuit
	initial  alloc.Mapping
	m        alloc.Mapping // program → physical
	inv      []int         // physical → program, -1 empty
	ops      opSlab
	movement []int
	path     []int // walk buffer
}

// newEmitter validates the router inputs and starts the output of
// routing c onto d from initial under the cost model's tables.
func newEmitter(d *device.Device, c *circuit.Circuit, initial alloc.Mapping, model CostModel) (*emitter, error) {
	if len(initial) != c.NumQubits {
		return nil, fmt.Errorf("route: mapping covers %d qubits, program has %d", len(initial), c.NumQubits)
	}
	if err := initial.Validate(d.NumQubits()); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	cm := cachedCosts(d, model)
	if cm.n > 0 && slices.Contains(cm.hops.Row(0), graphx.Inf) {
		return nil, fmt.Errorf("route: device %q is not connected", d.Topology().Name)
	}
	out := circuit.New(c.Name, cm.n)
	out.NumCBits = c.NumCBits
	e := &emitter{cm: cm, out: out, initial: initial, m: initial.Clone(), inv: make([]int, cm.n)}
	e.m.InverseInto(e.inv)
	return e, nil
}

// swap appends a movement SWAP and exchanges the program qubits at its
// ends, through the inverse map.
func (e *emitter) swap(sw physPair) {
	qs := e.ops.take(2)
	qs[0], qs[1] = sw.U, sw.V
	e.out.Append(circuit.Gate{Kind: gate.SWAP, Qubits: qs, CBit: -1})
	e.movement = append(e.movement, len(e.out.Gates)-1)
	pu, pv := e.inv[sw.U], e.inv[sw.V]
	if pu != -1 {
		e.m[pu] = sw.V
	}
	if pv != -1 {
		e.m[pv] = sw.U
	}
	e.inv[sw.U], e.inv[sw.V] = pv, pu
}

// gate appends program gate g with its operands mapped to physical qubits.
func (e *emitter) gate(g circuit.Gate) {
	qs := e.ops.take(len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = e.m[q]
	}
	e.out.Append(circuit.Gate{Kind: g.Kind, Qubits: qs, Param: g.Param, CBit: g.CBit})
}

// along swaps the qubit at path[0] down the path until it sits next to
// the path's last node.
func (e *emitter) along(path []int) {
	for i := 0; i+2 < len(path); i++ {
		e.swap(physPair{path[i], path[i+1]})
	}
}

// walk swaps the qubit at src along the cheapest path until it sits
// next to dst.
func (e *emitter) walk(src, dst int) {
	e.path = e.cm.path(src, dst, e.path)
	e.along(e.path)
}

func (e *emitter) result() *Result {
	return &Result{Physical: e.out, Initial: e.initial.Clone(), Final: e.m, Swaps: len(e.movement), Movement: e.movement}
}

// physPair is a physical SWAP: exchange the contents of qubits U and V.
type physPair struct{ U, V int }

// layerPairs returns the layer's two-qubit gates as program-qubit pairs.
// Already-adjacent pairs are included; the search treats them as satisfied
// at zero cost.
func layerPairs(c *circuit.Circuit, layer []int) [][2]int {
	var pairs [][2]int
	for _, gi := range layer {
		g := c.Gates[gi]
		if g.Kind.TwoQubit() {
			pairs = append(pairs, [2]int{g.Qubits[0], g.Qubits[1]})
		}
	}
	return pairs
}

// opSlab hands out operand slices for emitted gates in 1 KiB chunks, so a
// routed circuit performs one allocation per ~512 gates instead of one per
// gate. The slices are retained by the output circuit, so the slab is
// per-Route and never pooled; exhausted chunks stay alive through the gate
// slices that point into them.
type opSlab struct{ buf []int }

func (s *opSlab) take(n int) []int {
	if len(s.buf) < n {
		size := 1024
		if n > size {
			size = n
		}
		s.buf = make([]int, size)
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// Naive routes each two-qubit gate independently: if its operands are not
// adjacent, it swaps the control along a minimum-hop path (the one a
// hop-count Dijkstra records) until they are. No layer lookahead, no cost model — the movement half of the
// paper's "IBM native compiler" comparator.
type Naive struct{}

func (Naive) Name() string { return "naive" }

func (Naive) Route(d *device.Device, c *circuit.Circuit, initial alloc.Mapping) (*Result, error) {
	e, err := newEmitter(d, c, initial, CostHops)
	if err != nil {
		return nil, err
	}
	for _, g := range c.Gates {
		if g.Kind.TwoQubit() {
			// Swap the control down the path until adjacent to the target.
			if src, dst := e.m[g.Qubits[0]], e.m[g.Qubits[1]]; !e.cm.isCoupled(src, dst) {
				e.walk(src, dst)
			}
		}
		e.gate(g)
	}
	return e.result(), nil
}
