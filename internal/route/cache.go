package route

import (
	"sync"

	"vaq/internal/device"
	"vaq/internal/metrics"
)

// The cost cache memoizes the per-device search tables (the model's
// distance table and the hop table, whose rows are built on first touch,
// the coupling bitset, and the two adjacency-cost matrices A* builds on
// first use, O(n²·|E|)) across Route calls. The hop table is the
// device's own memoized Device.HopMatrix, and under CostHops the
// distance table is that same hop table, so only CostReliability runs
// Dijkstra of its own. The experiment harness compiles every
// workload across 104 calibration days × several policies × several
// candidate allocations, and before this cache each of those compiles
// rebuilt identical tables from scratch; with it, each (calibration,
// cost-model) pair is built exactly once per process.
//
// The key is device.Device.Fingerprint() — an exact digest of the
// topology and every calibration figure — paired with the cost model.
// Recalibrating (a new snapshot) or restricting the device (Section 8
// partitioning) changes the fingerprint, so stale tables can never be
// served; distinct Device values wrapping identical calibration data
// share one table, which is what the per-day sweep wants.
//
// Entries are built under a per-key sync.Once so concurrent Route calls
// on a new device build the table once and everyone else blocks on that
// build rather than duplicating it. The finished *costs value is
// immutable apart from its lazily filled rows and adjacency matrices,
// each built under its own sync.Once, so sharing it across goroutines
// is race-free.

type costKey struct {
	fp    uint64
	model CostModel
}

type costEntry struct {
	once sync.Once
	cm   *costs
}

var (
	costMu    sync.Mutex
	costTable = make(map[costKey]*costEntry)
	// cacheStats counts table lookups: a hit is an existing entry (even
	// one still being built under its Once), a miss creates an entry, and
	// an eviction counts every entry dropped by the overflow sweep. Large
	// synthetic fleets churn fingerprints; these counters make that churn
	// visible at /metrics as nisqd_route_cache_*.
	cacheStats metrics.CacheCounters
)

// CacheStats reads the cost-cache hit/miss/eviction counters.
func CacheStats() metrics.CacheSnapshot { return cacheStats.Snapshot() }

// CacheLen reports the number of memoized cost tables.
func CacheLen() int {
	costMu.Lock()
	defer costMu.Unlock()
	return len(costTable)
}

// maxCostEntries bounds the cache. A 104-day sweep needs 2 models × 104
// fingerprints ≈ 208 live entries; the bound only matters for pathological
// churn (e.g. fuzzing over thousands of synthetic devices), where the
// whole table is dropped and rebuilt rather than tracking recency.
const maxCostEntries = 1024

// cachedCosts returns the memoized search tables for (d, model),
// building them on first use.
func cachedCosts(d *device.Device, model CostModel) *costs {
	key := costKey{fp: d.Fingerprint(), model: model}
	costMu.Lock()
	e, ok := costTable[key]
	if !ok {
		if len(costTable) >= maxCostEntries {
			cacheStats.Evict(uint64(len(costTable)))
			costTable = make(map[costKey]*costEntry, maxCostEntries/4)
		}
		e = &costEntry{}
		costTable[key] = e
	}
	costMu.Unlock()
	if ok {
		cacheStats.Hit()
	} else {
		cacheStats.Miss()
	}
	e.once.Do(func() { e.cm = newCosts(d, model) })
	return e.cm
}
