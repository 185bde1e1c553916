package serve

import (
	"container/list"
	"sync"
)

// lru is the bounded least-recently-used cache behind the compile step's two
// memos (eigendecompositions by model spec, compressed alignments by content
// digest). It holds at most maxEntries values and maxBytes of caller-reported
// size, evicting from the cold end one entry at a time. Keys must identify
// their content exactly — a hit is served without further verification — so
// callers key by the canonical content itself or a collision-safe digest of
// it, never by a short hash. Nothing is allocated until the first add.
type lru[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64

	mu        sync.Mutex
	order     list.List // of *lruEntry[K, V], most recently used first
	items     map[K]*list.Element
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry[K comparable, V any] struct {
	key   K
	value V
	size  int64
}

// cacheStats is a point-in-time snapshot of one cache for the metrics and
// debug endpoints.
type cacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func newLRU[K comparable, V any](maxEntries int, maxBytes int64) *lru[K, V] {
	return &lru[K, V]{maxEntries: maxEntries, maxBytes: maxBytes}
}

// get returns the value cached under key, marking it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).value, true
	}
	c.misses++
	var zero V
	return zero, false
}

// add caches value under key, replacing any previous entry, then evicts
// least recently used entries until both bounds hold. A value larger than
// the byte bound on its own is not cached.
func (c *lru[K, V]) add(key K, value V, size int64) {
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		c.items = map[K]*list.Element{}
	}
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, value: value, size: size})
	c.bytes += size
	for len(c.items) > c.maxEntries || c.bytes > c.maxBytes {
		c.remove(c.order.Back())
		c.evictions++
	}
}

// remove unlinks one entry; the caller holds mu.
func (c *lru[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.items, e.key)
	c.bytes -= e.size
}

func (c *lru[K, V]) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Entries: len(c.items), Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
