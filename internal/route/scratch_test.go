package route

import (
	"runtime"
	"sync"
	"testing"
)

// drainScratchFree empties the scratch free list so a test starts from
// a known state.
func drainScratchFree() {
	scratchMu.Lock()
	scratchFree = nil
	scratchMu.Unlock()
}

// TestScratchReuseSurvivesGC: a scratch warmed by a wide search and put
// back must still be handed out after two GC cycles, so the next search
// allocates nothing — its best-g table and slabs are not regrown. A
// sync.Pool drops its contents at GC, which made every cycle regrow them.
func TestScratchReuseSurvivesGC(t *testing.T) {
	drainScratchFree()
	defer drainScratchFree()
	cm := cachedCosts(goldenQ20(), CostReliability)
	cm.ensureAdj()
	r := AStar{Cost: CostReliability, MAH: -1}
	m := identity(20)
	wide := [][2]int{{0, 19}, {1, 18}, {2, 17}, {3, 16}, {4, 15}, {5, 14}, {6, 13}, {7, 12}, {8, 11}, {9, 10}}
	pairs := [][2]int{{0, 7}, {5, 12}, {10, 17}, {4, 13}}
	search := func(pairs [][2]int) {
		sc := getScratch()
		defer putScratch(sc)
		sc.setup(20, 20)
		if plan, ok := r.searchSwaps(cm, sc, m, pairs, nil, nil, 50000); !ok || len(plan) == 0 {
			t.Fatalf("search failed: ok=%v plan=%v", ok, plan)
		}
	}
	search(wide)
	search(pairs)
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		search(pairs)
	})
	if allocs != 0 {
		t.Fatalf("warmed search allocated %v times per run after GC, want 0", allocs)
	}
}

// TestScratchFreeListBounded: however many scratches concurrent routes
// take out, the free list keeps at most GOMAXPROCS of them.
func TestScratchFreeListBounded(t *testing.T) {
	drainScratchFree()
	defer drainScratchFree()
	limit := runtime.GOMAXPROCS(0)
	held := make([]*searchScratch, 4*limit)
	for i := range held {
		held[i] = getScratch()
	}
	var wg sync.WaitGroup
	for _, sc := range held {
		wg.Add(1)
		go func(sc *searchScratch) {
			defer wg.Done()
			putScratch(sc)
		}(sc)
	}
	wg.Wait()
	scratchMu.Lock()
	n := len(scratchFree)
	scratchMu.Unlock()
	if n != limit {
		t.Fatalf("free list holds %d scratches after %d puts, want GOMAXPROCS = %d", n, len(held), limit)
	}
}
