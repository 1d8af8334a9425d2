package route

import (
	"fmt"
	"sync"
	"testing"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/device"
	"vaq/internal/metrics"
	"vaq/internal/topo"
	"vaq/internal/workloads"
)

// resetCostCache drops every memoized table.
func resetCostCache() {
	costMu.Lock()
	costTable = make(map[costKey]*costEntry)
	costMu.Unlock()
}

// TestCachedCostsSharesAndInvalidates checks the cache key discipline:
// identical calibration data shares one table, while recalibration,
// restriction, and a different cost model each get their own entry.
func TestCachedCostsSharesAndInvalidates(t *testing.T) {
	resetCostCache()
	d1 := goldenQ20()
	d2 := goldenQ20() // distinct Device, identical calibration data

	c1 := cachedCosts(d1, CostReliability)
	c2 := cachedCosts(d2, CostReliability)
	if c1 != c2 {
		t.Fatal("identical devices did not share one cost table")
	}
	if n := CacheLen(); n != 1 {
		t.Fatalf("cache entries = %d, want 1", n)
	}

	if c3 := cachedCosts(d1, CostHops); c3 == c1 {
		t.Fatal("hop and reliability models shared a table")
	}
	if n := CacheLen(); n != 2 {
		t.Fatalf("cache entries = %d, want 2", n)
	}

	// Recalibration: a different archive seed yields different error
	// rates, so the table must rebuild.
	recal := calib.Generate(calib.DefaultQ20Config(77))
	dRecal := device.MustNew(recal.Topo, recal.MustMean())
	if c4 := cachedCosts(dRecal, CostReliability); c4 == c1 {
		t.Fatal("recalibrated device reused the stale cost table")
	}

	// Restriction: a sub-device has its own topology and rates.
	sub, _, err := d1.Restrict([]int{0, 1, 2, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if c5 := cachedCosts(sub, CostReliability); c5 == c1 {
		t.Fatal("restricted device reused the full-device cost table")
	}
	if n := CacheLen(); n != 4 {
		t.Fatalf("cache entries = %d, want 4", n)
	}
}

// TestCachedVsColdIdenticalResults routes every (router, workload) combo
// twice — once against a cold cache, once warm — and demands byte-equal
// Results.
func TestCachedVsColdIdenticalResults(t *testing.T) {
	d := goldenQ20()
	routers := []Router{
		AStar{Cost: CostHops, MAH: -1},
		AStar{Cost: CostReliability, MAH: -1},
		AStar{Cost: CostReliability, MAH: 4},
	}
	for _, r := range routers {
		for _, w := range []int{8, 16} {
			prog := workloads.BV(w)
			init := identity(prog.NumQubits)
			resetCostCache()
			cold, err := r.Route(d, prog, init)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := r.Route(d, prog, init)
			if err != nil {
				t.Fatal(err)
			}
			if ch, wh := resultHash(cold), resultHash(warm); ch != wh {
				t.Fatalf("%s bv-%d: cold hash 0x%x != warm hash 0x%x", r.Name(), w, ch, wh)
			}
		}
	}
}

// TestConcurrentRouteSharedDevice hammers one device from many goroutines
// across both cost models; every routed result must match the serial one.
// scripts/check.sh runs this under the race detector, which exercises the
// cache's per-key build synchronization and the shared read-only tables.
func TestConcurrentRouteSharedDevice(t *testing.T) {
	resetCostCache()
	d := goldenQ20()
	prog := workloads.BV(16)
	init := identity(prog.NumQubits)
	routers := []Router{
		AStar{Cost: CostHops, MAH: -1},
		AStar{Cost: CostReliability, MAH: -1},
	}
	want := make([]uint64, len(routers))
	for i, r := range routers {
		res, err := r.Route(d, prog, init)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultHash(res)
	}

	resetCostCache() // force the goroutines to race on the first build
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(routers))
	for w := 0; w < workers; w++ {
		for i, r := range routers {
			wg.Add(1)
			go func(i int, r Router) {
				defer wg.Done()
				res, err := r.Route(d, prog, init)
				if err != nil {
					errs <- err
					return
				}
				if h := resultHash(res); h != want[i] {
					errs <- fmt.Errorf("%s: concurrent hash 0x%x != serial 0x%x", r.Name(), h, want[i])
				}
			}(i, r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCacheStatsConcurrentEviction churns distinct fingerprints past the
// cache bound from many goroutines while readers poll CacheStats.
// scripts/check.sh runs this under -race; the assertions check the
// counter accounting stays coherent through concurrent overflow sweeps:
// every lookup lands in exactly one of hits/misses, evictions only grow,
// and the final eviction total reflects at least one full sweep.
func TestCacheStatsConcurrentEviction(t *testing.T) {
	resetCostCache()
	cacheStats = metrics.CacheCounters{}
	tp := topo.Linear(3)
	mkDevice := func(worker, i int) *device.Device {
		s := calib.NewSnapshot(tp)
		for _, c := range tp.Couplings {
			s.TwoQubit[c] = 0.001 + 0.00001*float64(worker*10000+i) // unique rates → unique fingerprint
		}
		for q := 0; q < tp.NumQubits; q++ {
			s.OneQubit[q] = 0.001
			s.Readout[q] = 0.01
			s.T1Us[q], s.T2Us[q] = 80, 40
		}
		return device.MustNew(tp, s)
	}

	const workers = 8
	perWorker := maxCostEntries/workers + 64 // total > maxCostEntries → at least one sweep
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: CacheStats must be safe to poll mid-sweep.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := CacheStats()
				if snap.Evictions < last {
					t.Errorf("evictions went backwards: %d -> %d", last, snap.Evictions)
					return
				}
				last = snap.Evictions
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				cachedCosts(mkDevice(w, i), CostHops)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := CacheStats()
	lookups := workers * perWorker
	if got := snap.Hits + snap.Misses; got != uint64(lookups) {
		t.Errorf("hits+misses = %d, want %d (every lookup counted once)", got, lookups)
	}
	if snap.Misses == 0 || snap.Misses > uint64(lookups) {
		t.Errorf("misses = %d out of %d lookups", snap.Misses, lookups)
	}
	if snap.Evictions == 0 {
		t.Errorf("no evictions after %d distinct fingerprints (bound %d)", lookups, maxCostEntries)
	}
	if n := CacheLen(); n > maxCostEntries {
		t.Errorf("cache grew to %d entries, bound is %d", n, maxCostEntries)
	}
	resetCostCache()
	cacheStats = metrics.CacheCounters{}
}

// TestCostCacheBounded overfills the cache with distinct tiny devices and
// checks the size bound holds.
func TestCostCacheBounded(t *testing.T) {
	resetCostCache()
	tp := topo.Linear(3)
	for i := 0; i < maxCostEntries+8; i++ {
		s := calib.NewSnapshot(tp)
		for _, c := range tp.Couplings {
			s.TwoQubit[c] = 0.001 + 0.0001*float64(i) // unique rates → unique fingerprint
		}
		for q := 0; q < tp.NumQubits; q++ {
			s.OneQubit[q] = 0.001
			s.Readout[q] = 0.01
			s.T1Us[q], s.T2Us[q] = 80, 40
		}
		cachedCosts(device.MustNew(tp, s), CostHops)
	}
	if n := CacheLen(); n > maxCostEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", n, maxCostEntries)
	}
	resetCostCache()
}

// TestLargeDeviceTouchesFewRows: compiling BV-16 onto heavy-hex-1000
// under baseline allocation with sabre-hops movement, and under vqa+vqm
// allocation with sabre movement, reads only the distance rows of the
// qubits it places and scores. Each lazily built table — the device's
// hop and cost tables and the router's reliability table — must have
// built fewer than n/4 of its n rows.
func TestLargeDeviceTouchesFewRows(t *testing.T) {
	resetCostCache()
	defer resetCostCache()
	arch, err := calib.ZooArchive("heavy-hex-1000-mid", 2019)
	if err != nil {
		t.Fatal(err)
	}
	d := device.MustNew(arch.Topo, arch.MustMean())
	prog := workloads.BV(16)
	compile := func(a alloc.Policy, r Router) {
		t.Helper()
		m, err := a.Allocate(d, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Route(d, prog, m); err != nil {
			t.Fatal(err)
		}
	}
	compile(alloc.Greedy{}, Sabre{Cost: CostHops})                  // baseline @ sabre-hops
	for _, a := range []alloc.Policy{alloc.VQA{}, alloc.Greedy{}} { // vqa+vqm @ sabre
		compile(a, Sabre{Cost: CostReliability})
	}
	n := d.NumQubits()
	for _, tab := range []struct {
		name   string
		filled int
	}{
		{"Device.HopMatrix", d.HopMatrix().Filled()},
		{"Device.CostMatrix", d.CostMatrix().Filled()},
		{"CostReliability dist", cachedCosts(d, CostReliability).dist.Filled()},
		{"CostHops dist (=hops)", cachedCosts(d, CostHops).dist.Filled()},
	} {
		t.Logf("%s: %d of %d rows built", tab.name, tab.filled, n)
		if tab.filled == 0 || tab.filled >= n/4 {
			t.Errorf("%s built %d of %d rows, want 0 < rows < %d", tab.name, tab.filled, n, n/4)
		}
	}
}
