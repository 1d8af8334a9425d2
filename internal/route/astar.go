package route

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"vaq/internal/alloc"
	"vaq/internal/device"
	"vaq/internal/graphx"
)

// costs caches the per-device tables the search consults: pairwise
// movement costs under the chosen model, pairwise hop counts, and for each
// physical pair the cheapest cost to make them adjacent. A built costs
// value is immutable (its distance rows fill under per-row sync.Once) and
// shared across concurrent Route calls via the fingerprint-keyed cache in
// cache.go.
type costs struct {
	model CostModel
	n     int // physical qubits
	// edges of the coupling graph with their per-SWAP cost, ordered by
	// (U, V) — the A* neighbor-expansion order, so it is part of the
	// determinism contract.
	edges []graphx.Edge
	// graph is the swap-cost graph (same weights as edges): path reads
	// its neighbour lists and weights, and the MAH fallback runs its
	// hop-limited search on it.
	graph *graphx.Graph
	// dist.Row(a)[b]: minimum summed SWAP cost to move a qubit from a to
	// b, each row built on first touch. Under CostHops every SWAP costs
	// 1, so dist is hops (unit-weight Dijkstra sums are exact integers,
	// bit-identical to the BFS counts).
	dist *graphx.Rows
	// hops.Row(a)[b]: minimum number of SWAPs to move a qubit from a to
	// b. It is the device's memoized Device.HopMatrix, shared with the
	// baseline allocator and with both cost models' tables; read-only.
	hops *graphx.Rows
	// adjCost[a][b]: lower-estimate cost to make qubits at a and b
	// adjacent when each may move (see adjacencyTable). Built lazily by
	// ensureAdj on first A* use; Sabre routes off dist/coupled alone.
	adjCost [][]float64
	// adjOnce guards the lazy adjCost build.
	adjOnce sync.Once
	// coupled is the n×n coupling-adjacency bitset (bit a*n+b); the
	// satisfied() goal test consults it instead of scanning the
	// topology's coupling list per query.
	coupled []uint64
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
		dist = swapGraph.CSR().DijkstraRows()
	}
	cm := &costs{
		model: model,
		n:     n,
		edges: swapGraph.Edges(),
		graph: swapGraph,
		dist:  dist,
		hops:  hops,
	}
	cm.coupled = make([]uint64, (n*n+63)/64)
	for _, c := range d.Topology().Couplings {
		for _, i := range [2]int{c.A*n + c.B, c.B*n + c.A} {
			cm.coupled[i/64] |= 1 << (i % 64)
		}
	}
	return cm
}

// isCoupled reports whether physical qubits a and b share a coupling.
func (cm *costs) isCoupled(a, b int) bool {
	i := uint(a*cm.n + b)
	return cm.coupled[i/64]&(1<<(i%64)) != 0
}

// path returns the cheapest src→dst path, both endpoints included, in
// buf's storage. It is the path Dijkstra from src records, recovered from
// the memoized row dist.Row(src) alone: stepping back from dst, each
// node v's predecessor is the neighbour u with row[u]+w(u,v) == row[v]
// and the least (row[u], u). Dijkstra pops nodes in (distance, node)
// order and relaxes only on strict improvement, so that u is the one it
// records.
func (cm *costs) path(src, dst int, buf []int) []int {
	row := cm.dist.Row(src)
	buf = append(buf[:0], dst)
	for v := dst; v != src; {
		pred := -1
		for _, u := range cm.graph.Neighbors(v) {
			w, _ := cm.graph.Weight(u, v)
			if row[u]+w == row[v] && (pred == -1 || row[u] < row[pred]) {
				pred = u
			}
		}
		v = pred
		buf = append(buf, v)
	}
	slices.Reverse(buf)
	return buf
}

// ensureAdj builds the adjacency-cost table on first use, under a
// sync.Once; the table is never written again, so concurrent readers of
// the cached *costs stay race-free.
func (cm *costs) ensureAdj() {
	cm.adjOnce.Do(func() { cm.adjCost = adjacencyTable(cm.model, cm.edges, cm.dist, cm.n) })
}

// adjacencyTable computes, for every physical pair (a,b), the cheapest
// way to place them across a coupling link (u,v) when both may move:
// min of dist[a][u]+dist[b][v] over links, either orientation; 0 on the
// unqueried diagonal. Under CostHops that is hops−1, which a shortest
// path's links reach and no link beats. Under CostReliability it runs
// for a < b and is mirrored (addition commutes), as min over v of
// near[v]+dist[b][v], near[v] being the least dist[a][u] over v's
// neighbours: rounding is monotone, so that gives the per-link bits.
func adjacencyTable(model CostModel, edges []graphx.Edge, dist *graphx.Rows, n int) [][]float64 {
	flat := make([]float64, n*n)
	near := make([]float64, n)
	for a := 0; a < n; a++ {
		da := dist.Row(a)
		if model == CostHops {
			for b, h := range da {
				flat[a*n+b] = h - 1
			}
			flat[a*n+a] = 0
			continue
		}
		for v := range near {
			near[v] = math.Inf(1)
		}
		for _, e := range edges {
			near[e.V] = min(near[e.V], da[e.U])
			near[e.U] = min(near[e.U], da[e.V])
		}
		for b := a + 1; b < n; b++ {
			db := dist.Row(b)[:n]
			best := math.Inf(1)
			for v, d := range near {
				if c := d + db[v]; c < best {
					best = c
				}
			}
			flat[a*n+b], flat[b*n+a] = best, best
		}
	}
	adj := make([][]float64, n)
	for a := range adj {
		adj[a] = flat[a*n : (a+1)*n]
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
		if !cm.isCoupled(m[pr[0]], m[pr[1]]) {
			return false
		}
	}
	return true
}

// minSwapsNeeded sums the minimum swaps to satisfy every pair, hops−1
// each — the base of the MAH budget.
func (cm *costs) minSwapsNeeded(m []int, pairs [][2]int) int {
	total := 0.0
	for _, pr := range pairs {
		total += cm.hops.Row(m[pr[0]])[m[pr[1]]] - 1
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

// unpack decodes the whole mapping into m, whose length is the number
// of entries the key holds.
func (p packer) unpack(key packedKey, m []int) {
	mask := uint64(1)<<p.b - 1
	for i := range m {
		w := uint32(i) / p.epw
		sh := (uint32(i) % p.epw) * p.b
		m[i] = int(key[w] >> sh & mask)
	}
}

// stateRec is one A* node. It stores only its mapping's key; the search
// decodes the popped state's mapping from that key into one per-search
// buffer, so generating a state copies no mapping and performs no heap
// allocation.
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
// the open heap, the best-g table, the popped state's mapping and
// inverse, and the per-layer pair lists. It is reused across Route calls
// (getScratch/putScratch), so a warmed-up compile loop allocates
// (almost) nothing per circuit.
type searchScratch struct {
	k, n int // program qubits, physical qubits
	pk   packer
	strW int // bytes per entry of the fallback string key

	states []stateRec
	open   []openItem
	bestG  epochTable[packedKey]
	bestGS epochTable[string]
	cur    []int  // popped state's mapping (program→physical)
	inv    []int  // its inverse (physical→program, -1 empty)
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

// The scratch free list keeps warmed scratches across Route calls. A
// sync.Pool would drop every scratch at each GC, and with it the grown
// best-g tables, so a GC-heavy process would regrow them cycle after
// cycle. The list holds at most GOMAXPROCS scratches, one per goroutine
// that can be routing at once; surplus scratches are left to the GC.
var (
	scratchMu   sync.Mutex
	scratchFree []*searchScratch
)

// getScratch takes a scratch off the free list, or makes a new one.
func getScratch() *searchScratch {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	n := len(scratchFree)
	if n == 0 {
		return new(searchScratch)
	}
	sc := scratchFree[n-1]
	scratchFree[n-1] = nil
	scratchFree = scratchFree[:n-1]
	return sc
}

// putScratch returns sc to the free list unless the list is full.
func putScratch(sc *searchScratch) {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if len(scratchFree) < runtime.GOMAXPROCS(0) {
		scratchFree = append(scratchFree, sc)
	}
}

// setup sizes the scratch for one Route call.
func (sc *searchScratch) setup(numProgram, numPhysical int) {
	sc.k, sc.n = numProgram, numPhysical
	sc.pk = newPacker(numProgram, numPhysical)
	sc.strW = 2
	if numPhysical > 1<<16 {
		sc.strW = 4
	}
	sc.active = resized(sc.active, numProgram)
	sc.cur = resized(sc.cur, numProgram)
	sc.inv = resized(sc.inv, numPhysical)
	if sc.bestG.hash == nil {
		sc.bestG = newEpochTable(hashPacked)
		sc.bestGS = newEpochTable(hashString)
	}
}

// resized returns s with length n, reallocating only when it lacks the
// capacity (contents unspecified).
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetSearch clears per-layer state while keeping every capacity. Its
// cost is O(program qubits): the best-g tables reset by epoch, not by
// clearing their slots.
func (sc *searchScratch) resetSearch() {
	sc.states = sc.states[:0]
	sc.open = sc.open[:0]
	sc.bestG.reset()
	sc.bestGS.reset()
	for i := range sc.active {
		sc.active[i] = false
	}
}

// load decodes st's mapping into sc.cur and rebuilds its inverse in
// sc.inv.
func (sc *searchScratch) load(st *stateRec) {
	if sc.pk.fits {
		sc.pk.unpack(st.key, sc.cur)
	} else {
		for i := range sc.cur {
			v := 0
			for j := 0; j < sc.strW; j++ {
				v |= int(st.skey[i*sc.strW+j]) << (8 * j)
			}
			sc.cur[i] = v
		}
	}
	alloc.Mapping(sc.cur).InverseInto(sc.inv)
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

	root := stateRec{parent: -1}
	if sc.pk.fits {
		root.key = sc.pk.pack(m)
		sc.bestG.lower(root.key, 0)
	} else {
		root.skey = sc.stringKey(m)
		sc.bestGS.lower(root.skey, 0)
	}
	sc.states = append(sc.states, root)
	sc.pushOpen(openItem{f: cm.heuristic(m, pairs) + cm.lookahead(m, future, futureW), seq: 0, si: 0})
	seq := int32(0)
	expansions := 0
	cur, inv := sc.cur, sc.inv

	for len(sc.open) > 0 && expansions < maxExp {
		it := sc.popOpen()
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
		sc.load(&st)
		if cm.satisfied(cur, pairs) {
			return sc.extractPlan(it.si), true
		}
		expansions++
		if int(st.swaps) >= budget {
			continue
		}
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
			// Apply the swap to the popped state's mapping to score the
			// child; it is undone before the next edge.
			if pu != -1 {
				cur[pu] = e.V
			}
			if pv != -1 {
				cur[pv] = e.U
			}
			child := stateRec{g: st.g + e.W, swaps: st.swaps + 1, parent: it.si, move: physPair{e.U, e.V}}
			var better bool
			if sc.pk.fits {
				// Derive the child key from the parent's in O(1).
				child.key = st.key
				if pu != -1 {
					sc.pk.set(&child.key, pu, e.V)
				}
				if pv != -1 {
					sc.pk.set(&child.key, pv, e.U)
				}
				better = sc.bestG.lower(child.key, child.g)
			} else {
				child.skey = sc.stringKey(cur)
				better = sc.bestGS.lower(child.skey, child.g)
			}
			if better {
				sc.states = append(sc.states, child)
				seq++
				sc.pushOpen(openItem{
					f:   child.g + cm.heuristic(cur, pairs) + cm.lookahead(cur, future, futureW),
					seq: seq,
					si:  int32(len(sc.states) - 1),
				})
			}
			if pu != -1 {
				cur[pu] = e.U
			}
			if pv != -1 {
				cur[pv] = e.V
			}
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

// movePair routes a single physical pair: it walks the qubit at src
// along the cheapest (optionally hop-limited) path until it sits next to
// dst. Deterministic; always terminates on a connected machine.
func (r AStar) movePair(e *emitter, src, dst int) {
	if e.cm.isCoupled(src, dst) {
		return
	}
	if r.MAH >= 0 {
		maxHops := int(e.cm.hops.Row(src)[dst]) + r.MAH
		if _, paths := e.cm.graph.ConstrainedDijkstra(src, maxHops); paths[dst] != nil {
			e.along(paths[dst])
			return
		}
	}
	e.walk(src, dst)
}
