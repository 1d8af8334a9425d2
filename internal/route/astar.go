package route

import (
	"math"
	"math/bits"
	"sync"

	"vaq/internal/alloc"
	"vaq/internal/device"
	"vaq/internal/graphx"
)

// costs caches the per-device matrices the search consults: pairwise
// movement costs under the chosen model, pairwise hop counts, and for each
// physical pair the cheapest cost (and minimum swaps) to make them
// adjacent. A built costs value is immutable and shared across concurrent
// Route calls via the fingerprint-keyed cache in cache.go.
type costs struct {
	model CostModel
	n     int // physical qubits
	// edges of the coupling graph with their per-SWAP cost, ordered by
	// (U, V) — the A* neighbor-expansion order, so it is part of the
	// determinism contract.
	edges []graphx.Edge
	// graph is the Dijkstra-ready swap-cost graph (same weights as edges);
	// pairPlan's greedy fallback runs its path searches on it directly
	// instead of rebuilding a graph from edges on every call.
	graph *graphx.Graph
	// dist[a][b]: minimum summed SWAP cost to move a qubit from a to b.
	// Under CostHops every SWAP costs 1, so dist aliases hops (unit-weight
	// Dijkstra sums are exact integers, bit-identical to the BFS counts).
	dist [][]float64
	// hops[a][b]: minimum number of SWAPs to move a qubit from a to b.
	// It is the device's memoized Device.HopMatrix, shared with the
	// baseline allocator and with both cost models' tables; read-only.
	hops [][]float64
	// adjCost[a][b]: lower-estimate cost to make qubits at a and b
	// adjacent (each may move): min over coupling (u,v) of
	// min(dist[a][u]+dist[b][v], dist[a][v]+dist[b][u]).
	//
	// adjCost and adjHops are built lazily by ensureAdj: they cost
	// O(n²·|E|) — minutes of CPU at 1000 qubits — and only the A*
	// heuristic consults them. Sabre routes off dist/hops/coupled alone,
	// so large-device SABRE runs never pay for them.
	adjCost [][]float64
	// adjHops[a][b]: same quantity under hop counting — the minimum swaps
	// needed to make a and b adjacent, used for the MAH budget. Under
	// CostHops it aliases adjCost, since dist is hops.
	adjHops [][]float64
	// adjOnce guards the lazy adjCost/adjHops build.
	adjOnce sync.Once
	// coupled is the flat n×n coupling-adjacency table; the satisfied()
	// goal test consults it instead of scanning the topology's coupling
	// list per query.
	coupled []bool
}

func newCosts(d *device.Device, model CostModel) *costs {
	n := d.NumQubits()
	swapGraph := graphx.New(n)
	overhead := d.SwapOverheadCost()
	for _, c := range d.Topology().Couplings {
		w := 1.0
		if model == CostReliability {
			// Gate-failure hazard of the SWAP plus the decoherence hazard
			// of the schedule time it adds; the latter regularizes against
			// long detours whose per-route reliability gain is marginal.
			w = d.SwapCost(c.A, c.B) + overhead
		}
		swapGraph.AddEdge(c.A, c.B, w)
	}
	hops := d.HopMatrix()
	dist := hops
	if model == CostReliability {
		dist = swapGraph.CSR().AllPairsDijkstra()
	}
	cm := &costs{
		model: model,
		n:     n,
		edges: swapGraph.Edges(),
		graph: swapGraph,
		dist:  dist,
		hops:  hops,
	}
	cm.coupled = make([]bool, n*n)
	for _, c := range d.Topology().Couplings {
		cm.coupled[c.A*n+c.B] = true
		cm.coupled[c.B*n+c.A] = true
	}
	return cm
}

// ensureAdj builds the adjacency-cost matrices on first use. The cached
// *costs value stays effectively immutable: the build runs under a
// sync.Once, and after it the matrices are never written again, so
// concurrent readers are race-free exactly as before.
func (cm *costs) ensureAdj() {
	cm.adjOnce.Do(func() {
		cm.adjCost = adjacencyMatrix(cm.edges, cm.dist, cm.n)
		cm.adjHops = cm.adjCost
		if cm.model == CostReliability {
			cm.adjHops = adjacencyMatrix(cm.edges, cm.hops, cm.n)
		}
	})
}

// adjacencyMatrix computes, for every physical pair (a,b), the cheapest
// way to place them across some coupling link when both may move. Only
// the edges' endpoints are read, so either model's edge list serves. The
// rows share one flat backing array.
func adjacencyMatrix(edges []graphx.Edge, dist [][]float64, n int) [][]float64 {
	adj := make([][]float64, n)
	flat := make([]float64, n*n)
	for a := 0; a < n; a++ {
		adj[a] = flat[a*n : (a+1)*n]
		for b := 0; b < n; b++ {
			if a == b {
				continue // never queried: a gate has distinct operands
			}
			best := math.Inf(1)
			for _, e := range edges {
				if c := dist[a][e.U] + dist[b][e.V]; c < best {
					best = c
				}
				if c := dist[a][e.V] + dist[b][e.U]; c < best {
					best = c
				}
			}
			adj[a][b] = best
		}
	}
	return adj
}

// heuristic sums the adjacency cost over the layer's unsatisfied pairs
// under mapping m.
func (cm *costs) heuristic(m []int, pairs [][2]int) float64 {
	h := 0.0
	for _, pr := range pairs {
		h += cm.adjCost[m[pr[0]]][m[pr[1]]]
	}
	return h
}

// lookahead is the decaying bias toward keeping future layers' CNOT
// partners close (Zulehner et al.'s scheme).
func (cm *costs) lookahead(m []int, future [][2]int, futureW []float64) float64 {
	h := 0.0
	for i, pr := range future {
		h += futureW[i] * cm.adjCost[m[pr[0]]][m[pr[1]]]
	}
	return h
}

// satisfied reports whether every pair is mapped onto a coupling link.
func (cm *costs) satisfied(m []int, pairs [][2]int) bool {
	for _, pr := range pairs {
		if !cm.coupled[m[pr[0]]*cm.n+m[pr[1]]] {
			return false
		}
	}
	return true
}

// minSwapsNeeded sums the minimum swaps to satisfy every pair — the base
// of the MAH budget.
func (cm *costs) minSwapsNeeded(m []int, pairs [][2]int) int {
	total := 0.0
	for _, pr := range pairs {
		total += cm.adjHops[m[pr[0]]][m[pr[1]]]
	}
	return int(total)
}

// packedKey is a fixed-width encoding of a full program→physical mapping:
// each entry takes bitsFor(numPhysical) bits, entries never straddle word
// boundaries. Unlike the string key it replaces it is width-safe for
// devices with more than 255 physical qubits, comparable (a hash-table
// key), and derived from the parent state's key in O(1) without
// materializing the child mapping.
type packedKey [4]uint64

// packer describes the encoding for one search: b bits per entry, epw
// entries per 64-bit word. fits reports whether the mapping length fits
// in a packedKey; when it does not (≳ 28 program qubits on a >255-qubit
// machine), the search falls back to width-safe string keys.
type packer struct {
	b, epw uint32
	fits   bool
}

func newPacker(numProgram, numPhysical int) packer {
	b := uint32(bits.Len(uint(numPhysical - 1)))
	if b == 0 {
		b = 1
	}
	epw := 64 / b
	return packer{b: b, epw: epw, fits: uint32(numProgram) <= 4*epw}
}

// set overwrites entry i of the key with value v.
func (p packer) set(key *packedKey, i, v int) {
	w := uint32(i) / p.epw
	sh := (uint32(i) % p.epw) * p.b
	mask := (uint64(1)<<p.b - 1) << sh
	key[w] = key[w]&^mask | uint64(v)<<sh
}

// pack encodes the whole mapping.
func (p packer) pack(m []int) packedKey {
	var key packedKey
	for i, v := range m {
		p.set(&key, i, v)
	}
	return key
}

// stateRec is one A* node. The mapping and its inverse live in the
// scratch slabs (stride k and n respectively) at this record's index, so
// generating a state performs no heap allocation.
type stateRec struct {
	g      float64
	key    packedKey // packed mapping (packer path)
	skey   string    // width-safe string key (fallback path only)
	swaps  int32
	parent int32 // slab index; -1 for the root
	move   physPair
}

// openItem is an entry of the open list: f-score with a FIFO sequence
// tie-break for determinism, pointing at a slab state.
type openItem struct {
	f   float64
	seq int32
	si  int32
}

func openLess(a, b openItem) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.seq < b.seq
}

// searchScratch holds every buffer one Route call needs: the state slab,
// the open heap, the best-g table, and the per-layer pair lists. It is
// pooled across Route calls, so a warmed-up compile loop allocates
// (almost) nothing per circuit.
type searchScratch struct {
	k, n int // program qubits, physical qubits
	pk   packer
	strW int // bytes per entry of the fallback string key

	maps   []int // state mappings, stride k
	invs   []int // state inverses (physical→program, -1 empty), stride n
	states []stateRec
	open   []openItem
	bestG  epochTable[packedKey]
	bestGS epochTable[string]
	active []bool // per program qubit: does this layer move it?
	keyBuf []byte
	plan   []physPair

	// Per-circuit layer pair lists: pairsBuf holds every layer's
	// two-qubit pairs back to back; layer li owns
	// pairsBuf[layerOff[li]:layerOff[li+1]].
	pairsBuf [][2]int
	layerOff []int
	future   [][2]int
	futureW  []float64
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// setup sizes the scratch for one Route call.
func (sc *searchScratch) setup(numProgram, numPhysical int) {
	sc.k, sc.n = numProgram, numPhysical
	sc.pk = newPacker(numProgram, numPhysical)
	sc.strW = 2
	if numPhysical > 1<<16 {
		sc.strW = 4
	}
	if cap(sc.active) < numProgram {
		sc.active = make([]bool, numProgram)
	}
	sc.active = sc.active[:numProgram]
	if sc.bestG.hash == nil {
		sc.bestG = newEpochTable(hashPacked)
		sc.bestGS = newEpochTable(hashString)
	}
}

// resetSearch clears per-layer state while keeping every capacity. Its
// cost is O(program qubits): the best-g tables reset by epoch, not by
// clearing their slots.
func (sc *searchScratch) resetSearch() {
	sc.maps = sc.maps[:0]
	sc.invs = sc.invs[:0]
	sc.states = sc.states[:0]
	sc.open = sc.open[:0]
	sc.bestG.reset()
	sc.bestGS.reset()
	for i := range sc.active {
		sc.active[i] = false
	}
}

func (sc *searchScratch) mapAt(si int32) []int { return sc.maps[int(si)*sc.k : (int(si)+1)*sc.k] }
func (sc *searchScratch) invAt(si int32) []int { return sc.invs[int(si)*sc.n : (int(si)+1)*sc.n] }

// addState appends a zeroed state and its (uninitialized) map/inverse
// slab rows, returning its index.
func (sc *searchScratch) addState() int32 {
	si := int32(len(sc.states))
	sc.states = append(sc.states, stateRec{})
	sc.maps = growInts(sc.maps, sc.k)
	sc.invs = growInts(sc.invs, sc.n)
	return si
}

// dropLast rolls back the most recent addState (fallback path: the child
// was materialized to compute its key, then rejected by the best-g table).
func (sc *searchScratch) dropLast() {
	sc.states = sc.states[:len(sc.states)-1]
	sc.maps = sc.maps[:len(sc.maps)-sc.k]
	sc.invs = sc.invs[:len(sc.invs)-sc.n]
}

// reserve pre-grows the slabs so the next `extra` addState calls cannot
// reallocate — required because the expansion loop holds slices into the
// slabs while appending children.
func (sc *searchScratch) reserve(extra int) {
	if need := len(sc.states) + extra; need > cap(sc.states) {
		ns := make([]stateRec, len(sc.states), grownCap(cap(sc.states), need))
		copy(ns, sc.states)
		sc.states = ns
	}
	sc.maps = reserveInts(sc.maps, extra*sc.k)
	sc.invs = reserveInts(sc.invs, extra*sc.n)
}

// child materializes the state reached from parent by swapping across
// edge e: both the mapping and its inverse are copied from the parent and
// patched in place.
func (sc *searchScratch) child(parent int32, pu, pv int, e graphx.Edge) int32 {
	ci := sc.addState()
	m := sc.mapAt(ci)
	copy(m, sc.mapAt(parent))
	inv := sc.invAt(ci)
	copy(inv, sc.invAt(parent))
	if pu != -1 {
		m[pu] = e.V
	}
	if pv != -1 {
		m[pv] = e.U
	}
	inv[e.U], inv[e.V] = pv, pu
	return ci
}

// stringKey is the width-safe fallback encoding for mappings too long for
// a packedKey: strW little-endian bytes per entry.
func (sc *searchScratch) stringKey(m []int) string {
	need := len(m) * sc.strW
	if cap(sc.keyBuf) < need {
		sc.keyBuf = make([]byte, need)
	}
	b := sc.keyBuf[:need]
	for i, v := range m {
		for j := 0; j < sc.strW; j++ {
			b[i*sc.strW+j] = byte(v >> (8 * j))
		}
	}
	return string(b)
}

// pushOpen and popOpen implement the open list as a binary heap ordered
// by (f, seq) — a strict total order, so the pop sequence is identical to
// the container/heap implementation it replaces, without the per-pop
// interface boxing.
func (sc *searchScratch) pushOpen(it openItem) {
	h := append(sc.open, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !openLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	sc.open = h
}

func (sc *searchScratch) popOpen() openItem {
	h := sc.open
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && openLess(h[l], h[s]) {
			s = l
		}
		if r < n && openLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	sc.open = h
	return top
}

// buildLayerPairs extracts every layer's two-qubit pairs into the shared
// pairs buffer, so the per-layer loop (and its lookahead window) reads
// slices instead of re-scanning gate lists.
func (sc *searchScratch) buildLayerPairs(gates func(li int) [][2]int, numLayers int) {
	sc.pairsBuf = sc.pairsBuf[:0]
	sc.layerOff = sc.layerOff[:0]
	sc.layerOff = append(sc.layerOff, 0)
	for li := 0; li < numLayers; li++ {
		sc.pairsBuf = append(sc.pairsBuf, gates(li)...)
		sc.layerOff = append(sc.layerOff, len(sc.pairsBuf))
	}
}

func (sc *searchScratch) layerPairsAt(li int) [][2]int {
	return sc.pairsBuf[sc.layerOff[li]:sc.layerOff[li+1]]
}

// growInts extends s by `by` elements (contents unspecified).
func growInts(s []int, by int) []int {
	if need := len(s) + by; need > cap(s) {
		ns := make([]int, len(s), grownCap(cap(s), need))
		copy(ns, s)
		s = ns
	}
	return s[:len(s)+by]
}

// reserveInts grows capacity without changing length.
func reserveInts(s []int, by int) []int {
	if need := len(s) + by; need > cap(s) {
		ns := make([]int, len(s), grownCap(cap(s), need))
		copy(ns, s)
		return ns
	}
	return s
}

func grownCap(cur, need int) int {
	if c := 2 * cur; c > need {
		return c
	}
	return need
}

// searchSwaps finds a SWAP sequence that makes every pair in the layer
// adjacent simultaneously, minimizing the model's cost plus a decaying
// lookahead bias toward keeping future layers' partners (future/futureW)
// close. It never mutates m. ok is false when the search exhausted its
// expansion cap (or the MAH budget made the goal unreachable); the caller
// then routes gate by gate. The returned plan aliases scratch memory and
// is valid until the next search on the same scratch.
func (r AStar) searchSwaps(cm *costs, sc *searchScratch, m alloc.Mapping, pairs [][2]int, future [][2]int, futureW []float64, maxExp int) (plan []physPair, ok bool) {
	if cm.satisfied(m, pairs) {
		return nil, true
	}

	budget := math.MaxInt32
	if r.MAH >= 0 {
		budget = cm.minSwapsNeeded(m, pairs) + r.MAH
	}

	sc.resetSearch()
	for _, pr := range pairs {
		sc.active[pr[0]] = true
		sc.active[pr[1]] = true
	}

	start := sc.addState()
	sm := sc.mapAt(start)
	copy(sm, m)
	m.InverseInto(sc.invAt(start))
	root := &sc.states[start]
	root.parent = -1
	if sc.pk.fits {
		root.key = sc.pk.pack(sm)
		sc.bestG.lower(root.key, 0)
	} else {
		root.skey = sc.stringKey(sm)
		sc.bestGS.lower(root.skey, 0)
	}
	sc.pushOpen(openItem{f: cm.heuristic(sm, pairs) + cm.lookahead(sm, future, futureW), seq: 0, si: start})
	seq := int32(0)
	expansions := 0

	for len(sc.open) > 0 && expansions < maxExp {
		it := sc.popOpen()
		// Growing the slabs mid-expansion would invalidate the slices
		// taken below, so guarantee room for a full fan-out up front.
		sc.reserve(len(cm.edges))
		st := sc.states[it.si]
		if sc.pk.fits {
			if g, seen := sc.bestG.get(st.key); seen && st.g > g {
				continue // stale entry
			}
		} else {
			if g, seen := sc.bestGS.get(st.skey); seen && st.g > g {
				continue
			}
		}
		stMap := sc.mapAt(it.si)
		if cm.satisfied(stMap, pairs) {
			return sc.extractPlan(it.si), true
		}
		expansions++
		if int(st.swaps) >= budget {
			continue
		}
		inv := sc.invAt(it.si)
		for _, e := range cm.edges {
			pu, pv := inv[e.U], inv[e.V]
			if pu == -1 && pv == -1 {
				continue
			}
			// Zulehner-style restriction: only move qubits the layer
			// cares about (or their blockers).
			if !(pu != -1 && sc.active[pu]) && !(pv != -1 && sc.active[pv]) {
				continue
			}
			g := st.g + e.W
			var ci int32
			if sc.pk.fits {
				// Derive the child key from the parent's without
				// materializing the child mapping; most children die here.
				ck := st.key
				if pu != -1 {
					sc.pk.set(&ck, pu, e.V)
				}
				if pv != -1 {
					sc.pk.set(&ck, pv, e.U)
				}
				if !sc.bestG.lower(ck, g) {
					continue
				}
				ci = sc.child(it.si, pu, pv, e)
				sc.states[ci].key = ck
			} else {
				ci = sc.child(it.si, pu, pv, e)
				ck := sc.stringKey(sc.mapAt(ci))
				if !sc.bestGS.lower(ck, g) {
					sc.dropLast()
					continue
				}
				sc.states[ci].skey = ck
			}
			cs := &sc.states[ci]
			cs.g = g
			cs.swaps = st.swaps + 1
			cs.parent = it.si
			cs.move = physPair{e.U, e.V}
			childMap := sc.mapAt(ci)
			seq++
			sc.pushOpen(openItem{
				f:   g + cm.heuristic(childMap, pairs) + cm.lookahead(childMap, future, futureW),
				seq: seq,
				si:  ci,
			})
		}
	}
	return nil, false
}

// extractPlan walks the parent chain into the scratch plan buffer and
// reverses it into execution order.
func (sc *searchScratch) extractPlan(si int32) []physPair {
	sc.plan = sc.plan[:0]
	for s := si; sc.states[s].parent != -1; s = sc.states[s].parent {
		sc.plan = append(sc.plan, sc.states[s].move)
	}
	for i, j := 0, len(sc.plan)-1; i < j; i, j = i+1, j-1 {
		sc.plan[i], sc.plan[j] = sc.plan[j], sc.plan[i]
	}
	return sc.plan
}

// pairPlan routes a single physical pair: it walks the qubit at src along
// the cheapest (optionally hop-limited) path toward dst and returns the
// swap sequence that makes them adjacent. Deterministic; always terminates
// on a connected machine.
func (r AStar) pairPlan(cm *costs, src, dst int) []physPair {
	if cm.coupled[src*cm.n+dst] {
		return nil
	}
	var path []int
	if r.MAH >= 0 {
		maxHops := int(cm.hops[src][dst]) + r.MAH
		_, paths := cm.graph.ConstrainedDijkstra(src, maxHops)
		path = paths[dst]
	}
	if path == nil {
		path, _, _ = cm.graph.ShortestPath(src, dst)
	}
	var plan []physPair
	for i := 0; i+2 < len(path); i++ {
		plan = append(plan, physPair{path[i], path[i+1]})
	}
	return plan
}
