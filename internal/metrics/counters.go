package metrics

import "sync/atomic"

// CacheCounters is a lock-free hit/miss/eviction tally for bounded
// caches (the route cost-table cache, the serve response cache). A
// zero value is ready to use; all methods are safe for concurrent use.
type CacheCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Hit, Miss and Evict record one event each; Evict takes a count
// because bounded caches may drop many entries in one sweep.
func (c *CacheCounters) Hit()           { c.hits.Add(1) }
func (c *CacheCounters) Miss()          { c.misses.Add(1) }
func (c *CacheCounters) Evict(n uint64) { c.evictions.Add(n) }

// CacheSnapshot is a point-in-time reading of a CacheCounters.
type CacheSnapshot struct {
	Hits, Misses, Evictions uint64
}

// Snapshot reads the counters. The three loads are individually atomic
// but not mutually consistent — fine for observability.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
