package server

import (
	"container/list"
	"sync"

	"fastmatch/internal/engine"
)

// lruCache is a thread-safe fixed-capacity LRU map with hit/miss
// accounting. The server instantiates two: a plan cache (query shape →
// *engine.Plan, so repeated query shapes skip planning and index lookups)
// and a result cache (full request fingerprint → cachedResult; sound
// because runs are deterministic given their seed, so equal fingerprints
// imply byte-identical results).
type lruCache[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recent
	items  map[K]*list.Element
	hits   int64
	misses int64
}

// cachedResult is a result-cache value: the encoded result payload and
// the run's quality report (nil for exact executors), so a hit answers a
// quality request as the run itself did.
type cachedResult struct {
	payload []byte
	quality *engine.QualityReport
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRUCache creates a cache holding up to capacity entries; capacity ≤ 0
// disables caching (every Get misses, Put is a no-op).
func newLRUCache[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value and marks it most-recently-used.
func (c *lruCache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least-recently-used entry
// when over capacity.
func (c *lruCache[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// CacheStats is a point-in-time cache counters snapshot.
type CacheStats struct {
	// Hits and Misses count Get outcomes since startup.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the current entry count; Capacity the configured bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// Stats returns a snapshot of the cache counters.
func (c *lruCache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Capacity: c.cap}
}
