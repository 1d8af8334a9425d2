package metrics

import (
	"sync"
	"testing"
)

func TestCacheCounters(t *testing.T) {
	var c CacheCounters
	c.Hit()
	c.Hit()
	c.Miss()
	c.Evict(3)
	s := c.Snapshot()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 3 {
		t.Fatalf("snapshot %+v, want hits=2 misses=1 evictions=3", s)
	}
}

// TestCacheCountersConcurrent: counters are plain atomics — hammer them
// from many goroutines and check totals (run under -race in check.sh).
func TestCacheCountersConcurrent(t *testing.T) {
	var c CacheCounters
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Hit()
				c.Miss()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Hits != workers*each || s.Misses != workers*each {
		t.Fatalf("lost updates: %+v", s)
	}
}
