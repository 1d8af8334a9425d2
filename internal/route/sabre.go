package route

import (
	"fmt"
	"sort"
	"strings"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/device"
)

// Sabre is a SABRE-style heuristic router (Li, Ding & Xie; hardware-
// aware variant per Niu et al.): instead of A*'s per-layer search over
// mapping states — combinatorial in the worst case — it repeatedly
// scores every candidate SWAP against the front layer of unroutable
// gates plus a decaying extended-lookahead window, and greedily applies
// the best one. Per decision the cost is O(|E|·(|F|+|X|)), so routing
// stays near-linear in circuit size and device size, which is what
// makes 1000-qubit machines reachable (see BenchmarkRouteScale).
//
// Determinism contract (shared with AStar): candidate SWAPs are scanned
// in cm.edges order — sorted by (U, V) at construction — and a strictly
// better score is required to displace the incumbent, so ties resolve
// to the lowest-ordered edge. The executable-gate scan walks a sorted
// ready list. No map is ever iterated. Identical inputs therefore
// produce byte-identical routed circuits on any GOMAXPROCS, pinned by
// the golden hashes in golden_test.go.
type Sabre struct {
	// Cost selects the distance table the scoring sums: CostHops counts
	// SWAPs (the variation-unaware heuristic), CostReliability sums
	// −log-success SWAP costs, making the router prefer detours over
	// weak links — the variation-aware movement policy at scale.
	Cost CostModel
}

// Scoring and decay parameters, following the SABRE paper's published
// constants: the extended set holds up to 20 downstream two-qubit
// gates at weight 0.5; each applied SWAP bumps its qubits' decay factor
// by 0.001 to spread movement across the device; the decay map resets
// whenever a gate retires.
const (
	sabreExtendedSize   = 20
	sabreExtendedWeight = 0.5
	sabreDecayStep      = 0.001
)

func (r Sabre) Name() string {
	if r.Cost == CostHops {
		return "sabre-hops"
	}
	return "sabre-reliability"
}

// sabreState carries the per-Route working set; its emitter holds the
// output and the mapping.
type sabreState struct {
	*emitter
	c *circuit.Circuit

	succs  [][]int // dependency DAG: gate → later gates it enables
	indeg  []int   // unretired predecessor count per gate
	ready  []int   // unretired gates with indeg 0, ascending
	remain int     // unretired gate count

	decay  []float64 // per physical qubit
	front  [][2]int  // physical endpoint pairs of blocked front gates
	extend [][2]int  // physical endpoint pairs of the extended set
	// frontRow[i] and extendRow[i] are cm.dist's rows at front[i][0]
	// and extend[i][0], fetched once per swap decision.
	frontRow  [][]float64
	extendRow [][]float64
	active    []bool // per physical qubit: endpoint of a front gate
	visited   []int  // BFS stamp per gate
	stamp     int
	queue     []int
}

// Route compiles c onto d starting from initial. The cost tables come
// from the same fingerprint-keyed cache as AStar's, but the adjacency
// matrices stay unbuilt: SABRE only reads dist and coupled, and only
// the dist rows of the qubits it scores are ever built.
func (r Sabre) Route(d *device.Device, c *circuit.Circuit, initial alloc.Mapping) (*Result, error) {
	e, err := newEmitter(d, c, initial, r.Cost)
	if err != nil {
		return nil, err
	}
	n := d.NumQubits()
	st := &sabreState{emitter: e, c: c}
	st.buildDeps()
	st.decay = make([]float64, n)
	st.active = make([]bool, n)
	st.visited = make([]int, len(c.Gates))
	st.resetDecay()

	// A stall this long means the heuristic is cycling (possible on
	// pathological topologies); the greedy path fallback then guarantees
	// progress, exactly like A*'s expansion-cap fallback.
	stallLimit := 2*n + 16
	stall := 0

	for st.remain > 0 {
		if st.executeReady() {
			st.resetDecay()
			stall = 0
			continue
		}
		if st.remain == 0 {
			break
		}
		st.collectFront()
		if stall >= stallLimit {
			// Deterministic escape hatch: walk the first front gate's
			// control toward its target along the cheapest path.
			st.walk(st.front[0][0], st.front[0][1])
			st.resetDecay()
			stall = 0
			continue
		}
		st.collectExtended()
		sw, ok := st.bestSwap()
		if !ok {
			// No candidate touches a front qubit — cannot happen on a
			// connected device, but fail loudly rather than spin.
			return nil, fmt.Errorf("route: sabre found no candidate swap on %q", d.Topology().Name)
		}
		st.swap(sw)
		st.decay[sw.U] += sabreDecayStep
		st.decay[sw.V] += sabreDecayStep
		stall++
	}
	return st.result(), nil
}

// buildDeps constructs the gate dependency DAG: gate gi depends on the
// previous gate touching each of its qubits. Successor lists are built
// in ascending gate order, and the initial ready list is ascending, so
// every later scan is over sorted data.
func (st *sabreState) buildDeps() {
	gates := st.c.Gates
	st.succs = make([][]int, len(gates))
	st.indeg = make([]int, len(gates))
	last := make([]int, st.c.NumQubits)
	for i := range last {
		last[i] = -1
	}
	for gi, g := range gates {
		for _, q := range g.Qubits {
			if p := last[q]; p != -1 {
				st.succs[p] = append(st.succs[p], gi)
				st.indeg[gi]++
			}
			last[q] = gi
		}
	}
	st.remain = len(gates)
	for gi := range gates {
		if st.indeg[gi] == 0 {
			st.ready = append(st.ready, gi)
		}
	}
}

// retire removes the dependency edges out of gi and returns the gates
// it newly enabled (ascending; they all have index > gi).
func (st *sabreState) retire(gi int) []int {
	st.remain--
	var enabled []int
	for _, s := range st.succs[gi] {
		st.indeg[s]--
		if st.indeg[s] == 0 {
			enabled = append(enabled, s)
		}
	}
	return enabled
}

// executable reports whether gate gi can run under the current mapping.
// Barriers and single-qubit/measure gates always can; a two-qubit gate
// needs its operands on a coupling link.
func (st *sabreState) executable(gi int) bool {
	g := st.c.Gates[gi]
	if !g.Kind.TwoQubit() {
		return true
	}
	return st.cm.isCoupled(st.m[g.Qubits[0]], st.m[g.Qubits[1]])
}

// executeReady emits every currently executable ready gate, in gate
// order, cascading through newly enabled gates (their indices are
// always above the retiring gate's, so a single ascending sweep with
// sorted insertion sees them). Barriers retire without emission —
// circuit.Layers never schedules them, so the A* output they must
// match never contains them either. Reports whether anything retired.
func (st *sabreState) executeReady() bool {
	progress := false
	for i := 0; i < len(st.ready); {
		gi := st.ready[i]
		if !st.executable(gi) {
			i++
			continue
		}
		g := st.c.Gates[gi]
		if g.Kind.TwoQubit() || g.Kind.Arity() == 1 {
			st.gate(g)
		}
		st.ready = append(st.ready[:i], st.ready[i+1:]...)
		for _, e := range st.retire(gi) {
			at := sort.SearchInts(st.ready, e)
			st.ready = append(st.ready, 0)
			copy(st.ready[at+1:], st.ready[at:])
			st.ready[at] = e
		}
		progress = true
	}
	return progress
}

// collectFront gathers the physical endpoint pairs of the blocked ready
// gates (all two-qubit, all non-adjacent after executeReady) and marks
// their qubits active.
func (st *sabreState) collectFront() {
	st.front = st.front[:0]
	for i := range st.active {
		st.active[i] = false
	}
	for _, gi := range st.ready {
		g := st.c.Gates[gi]
		a, b := st.m[g.Qubits[0]], st.m[g.Qubits[1]]
		st.front = append(st.front, [2]int{a, b})
		st.active[a] = true
		st.active[b] = true
	}
}

// collectExtended walks the dependency DAG breadth-first from the front
// gates' successors, gathering up to sabreExtendedSize downstream
// two-qubit gates — the lookahead window that keeps future partners
// close. Traversal order is fully determined by the sorted ready list
// and the ascending successor lists.
func (st *sabreState) collectExtended() {
	st.extend = st.extend[:0]
	st.stamp++
	st.queue = st.queue[:0]
	for _, gi := range st.ready {
		for _, s := range st.succs[gi] {
			if st.visited[s] != st.stamp {
				st.visited[s] = st.stamp
				st.queue = append(st.queue, s)
			}
		}
	}
	for qi := 0; qi < len(st.queue) && len(st.extend) < sabreExtendedSize; qi++ {
		gi := st.queue[qi]
		g := st.c.Gates[gi]
		if g.Kind.TwoQubit() {
			st.extend = append(st.extend, [2]int{st.m[g.Qubits[0]], st.m[g.Qubits[1]]})
		}
		for _, s := range st.succs[gi] {
			if st.visited[s] != st.stamp {
				st.visited[s] = st.stamp
				st.queue = append(st.queue, s)
			}
		}
	}
}

// bestSwap scores every coupling edge with an active endpoint and
// returns the minimizer. The score is the SABRE objective: the mean
// front-layer distance after the hypothetical swap, plus the weighted
// mean extended-set distance, scaled by the decay factor of the
// swapped qubits. Distances come from cm.dist, so under
// CostReliability "distance" is already the −log-success movement cost
// and the same scoring is hardware-aware for free.
func (st *sabreState) bestSwap() (physPair, bool) {
	cm := st.cm
	st.frontRow = st.frontRow[:0]
	for _, f := range st.front {
		st.frontRow = append(st.frontRow, cm.dist.Row(f[0]))
	}
	st.extendRow = st.extendRow[:0]
	for _, f := range st.extend {
		st.extendRow = append(st.extendRow, cm.dist.Row(f[0]))
	}
	best := physPair{-1, -1}
	bestScore := 0.0
	for _, e := range cm.edges {
		if !st.active[e.U] && !st.active[e.V] {
			continue
		}
		// Hypothetical position lookup: qubits at e.U and e.V trade places.
		pos := func(p int) int {
			switch p {
			case e.U:
				return e.V
			case e.V:
				return e.U
			}
			return p
		}
		// A pair's distance after the swap: its prefetched row, unless
		// the swap moves the pair's first qubit.
		sum := 0.0
		for i, f := range st.front {
			row := st.frontRow[i]
			if a := pos(f[0]); a != f[0] {
				row = cm.dist.Row(a)
			}
			sum += row[pos(f[1])]
		}
		score := sum / float64(len(st.front))
		if len(st.extend) > 0 {
			ext := 0.0
			for i, f := range st.extend {
				row := st.extendRow[i]
				if a := pos(f[0]); a != f[0] {
					row = cm.dist.Row(a)
				}
				ext += row[pos(f[1])]
			}
			score += sabreExtendedWeight * ext / float64(len(st.extend))
		}
		d := st.decay[e.U]
		if st.decay[e.V] > d {
			d = st.decay[e.V]
		}
		score *= d
		if best.U == -1 || score < bestScore {
			best = physPair{e.U, e.V}
			bestScore = score
		}
	}
	return best, best.U != -1
}

func (st *sabreState) resetDecay() {
	for i := range st.decay {
		st.decay[i] = 1
	}
}

// Movement-policy registry: the names a `movement` knob accepts across
// the CLI, the service and the portfolio grid.
const (
	MovementBaseline  = "baseline" // AStar, hop cost (variation-unaware)
	MovementVQM       = "vqm"      // AStar, reliability cost
	MovementVQMHop    = "vqm-hop"  // AStar, reliability cost, MAH=4
	MovementSabre     = "sabre"    // Sabre, reliability cost (scalable VQM)
	MovementSabreHops = "sabre-hops"
)

// MovementNames lists the valid movement-policy names in listing order.
func MovementNames() []string {
	return []string{MovementBaseline, MovementVQM, MovementVQMHop, MovementSabre, MovementSabreHops}
}

// ByName resolves a movement-policy name to its router. maxExpansions
// caps the A*-based policies' per-layer search (0 means the default);
// the SABRE policies ignore it. Unknown names report the valid set.
func ByName(name string, maxExpansions int) (Router, error) {
	switch name {
	case MovementBaseline:
		return AStar{Cost: CostHops, MAH: -1, MaxExpansions: maxExpansions}, nil
	case MovementVQM:
		return AStar{Cost: CostReliability, MAH: -1, MaxExpansions: maxExpansions}, nil
	case MovementVQMHop:
		return AStar{Cost: CostReliability, MAH: 4, MaxExpansions: maxExpansions}, nil
	case MovementSabre:
		return Sabre{Cost: CostReliability}, nil
	case MovementSabreHops:
		return Sabre{Cost: CostHops}, nil
	}
	return nil, fmt.Errorf("route: unknown movement policy %q (valid: %s)",
		name, strings.Join(MovementNames(), ", "))
}
