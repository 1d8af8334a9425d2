package serve

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity LRU of marshaled response bodies. It
// layers on top of the per-device routing cost cache in package route:
// the route cache makes a cold compile cheap to search, this cache makes
// a repeated request free. Values are the exact bytes previously
// written to a client, so a hit is a single map lookup plus one Write —
// and trivially bit-identical to the miss that populated it.
type lruCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	val []byte
}

// newLRUCache returns a cache bounded at max entries; max <= 0 disables
// caching (get always misses, put is a no-op).
func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lruCache) get(key string) ([]byte, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *lruCache) put(key string, val []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// delete drops one entry (a no-op when absent) — the invalidation hook
// the drift plane's canary adoption uses to stop serving a mapping the
// current calibration no longer supports.
func (c *lruCache) delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.m, key)
	return true
}
