package route

import (
	"testing"
	"unsafe"

	"vaq/internal/alloc"
	"vaq/internal/workloads"
)

// BenchmarkNewCosts measures a cold cost-table build for the Q20 machine:
// the reliability all-pairs Dijkstra plus the one adjacency table
// (forced here, since it is otherwise built lazily on first A* use). The hop
// matrix is the device's memoized one, so only the first iteration
// builds it. This is the work the cost cache amortizes away.
func BenchmarkNewCosts(b *testing.B) {
	d := goldenQ20()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := newCosts(d, CostReliability)
		if cm == nil {
			b.Fatal("nil cost table")
		}
		cm.ensureAdj()
	}
}

// BenchmarkSearchSwaps measures one packed-state A* search over a dense
// layer on IBM Q20: four simultaneous CNOT pairs, each a few hops apart,
// under identity placement. Exercises the hot path in isolation — slab
// states, packed keys, the custom open heap — without circuit emission.
func BenchmarkSearchSwaps(b *testing.B) {
	d := goldenQ20()
	cm := cachedCosts(d, CostReliability)
	cm.ensureAdj() // searchSwaps is called below without going through Route
	r := AStar{Cost: CostReliability, MAH: -1}
	m := identity(20)
	pairs := [][2]int{{0, 7}, {5, 12}, {10, 17}, {4, 13}}

	sc := new(searchScratch)
	sc.setup(20, 20)
	sc.buildLayerPairs(func(int) [][2]int { return pairs }, 1)
	search := func() {
		if plan, ok := r.searchSwaps(cm, sc, m, pairs, nil, nil, 50000); !ok || len(plan) == 0 {
			b.Fatalf("search failed: ok=%v plan=%v", ok, plan)
		}
	}
	search() // untimed: grows the scratch, so short runs report the steady state

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

// BenchmarkSearchSwapsAfterWideSearch is BenchmarkSearchSwaps on a
// scratch that first ran one wide search: ten far-apart pairs on Q20,
// which grows the best-g table to thousands of entries. Each timed
// search must reset that table; with a pooled Go map the reset cost the
// map's peak capacity, so this benchmark ran well behind
// BenchmarkSearchSwaps. With the epoch-stamped table the two should match.
// It reports retained-B: the heap the scratch keeps between searches
// after the wide one, which is what the free list holds per scratch.
func BenchmarkSearchSwapsAfterWideSearch(b *testing.B) {
	d := goldenQ20()
	cm := cachedCosts(d, CostReliability)
	cm.ensureAdj()
	r := AStar{Cost: CostReliability, MAH: -1}
	m := identity(20)
	wide := [][2]int{{0, 19}, {1, 18}, {2, 17}, {3, 16}, {4, 15}, {5, 14}, {6, 13}, {7, 12}, {8, 11}, {9, 10}}
	pairs := [][2]int{{0, 7}, {5, 12}, {10, 17}, {4, 13}}

	sc := new(searchScratch)
	sc.setup(20, 20)
	sc.buildLayerPairs(func(int) [][2]int { return pairs }, 1)
	r.searchSwaps(cm, sc, m, wide, nil, nil, 50000)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, ok := r.searchSwaps(cm, sc, m, pairs, nil, nil, 50000)
		if !ok || len(plan) == 0 {
			b.Fatalf("search failed: ok=%v plan=%v", ok, plan)
		}
	}
	b.ReportMetric(float64(sc.retainedBytes()), "retained-B")
}

// wideSearch is a layer whose mapping keys are five words wide: 30
// program qubits on a 300-qubit line (9 bits per entry, 7 entries per
// word), placed as gappedInit places them. Pairs (0,3) and (10,13)
// start six links apart and (20,21) two.
func wideSearch() (cm *costs, m alloc.Mapping, pairs [][2]int) {
	d := line300()
	cm = cachedCosts(d, CostReliability)
	cm.ensureAdj()
	return cm, gappedInit(d, goldenChain(30)), [][2]int{{0, 3}, {10, 13}, {20, 21}}
}

// BenchmarkSearchSwapsWide is BenchmarkSearchSwaps with five-word keys
// (see wideSearch), the width of large programs on large devices. One
// untimed search grows the scratch first, so short runs report the
// steady state.
func BenchmarkSearchSwapsWide(b *testing.B) {
	cm, m, pairs := wideSearch()
	r := AStar{Cost: CostReliability, MAH: -1}
	sc := new(searchScratch)
	sc.setup(len(m), cm.n)
	search := func() {
		if plan, ok := r.searchSwaps(cm, sc, m, pairs, nil, nil, 50000); !ok || len(plan) == 0 {
			b.Fatalf("search failed: ok=%v plan=%v", ok, plan)
		}
	}
	search()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

// retainedBytes sums the capacity of every buffer the scratch keeps
// between Route calls, the key slab and best-g table slots included.
func (sc *searchScratch) retainedBytes() int {
	size := func(capacity int, elem uintptr) int { return capacity * int(elem) }
	return size(cap(sc.states), unsafe.Sizeof(stateRec{})) +
		size(cap(sc.keys), unsafe.Sizeof(uint64(0))) +
		size(cap(sc.open), unsafe.Sizeof(openItem{})) +
		size(cap(sc.bestG.slots), unsafe.Sizeof(epochSlot{})) +
		size(cap(sc.cur)+cap(sc.inv)+cap(sc.layerOff), unsafe.Sizeof(0)) +
		size(cap(sc.active), 1) +
		size(cap(sc.plan), unsafe.Sizeof(physPair{})) +
		size(cap(sc.pairsBuf)+cap(sc.future), unsafe.Sizeof([2]int{})) +
		size(cap(sc.futureW), unsafe.Sizeof(0.0))
}

// BenchmarkRouteCached routes BV-16 with the cost tables already memoized:
// the steady state of a calibration sweep, where routing cost is the search
// plus output emission only.
func BenchmarkRouteCached(b *testing.B) {
	d := goldenQ20()
	c := workloads.BV(16)
	init := identity(c.NumQubits)
	r := AStar{Cost: CostReliability, MAH: -1}
	if _, err := r.Route(d, c, init); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(d, c, init); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteCold is BenchmarkRouteCached with the cache dropped every
// iteration, so each Route pays the full cost-table build. The gap between
// the two is the per-compile saving the cache buys.
func BenchmarkRouteCold(b *testing.B) {
	d := goldenQ20()
	c := workloads.BV(16)
	init := identity(c.NumQubits)
	r := AStar{Cost: CostReliability, MAH: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetCostCache()
		if _, err := r.Route(d, c, init); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	resetCostCache()
}
