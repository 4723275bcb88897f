package service

import (
	"container/list"
	"sync"

	"sketchsp/internal/obs"
)

// byteLRU is a byte-bounded LRU of immutable values: the Â cache behind
// by-reference sketches (byref.go) and the preconditioner cache behind
// /v1/solve (solve.go). There is no single-flight: two racing misses both
// compute the value and the second put replaces the first, which is sound
// because both uses derive equal bits from equal keys. Eviction removes
// whole entries from the LRU tail until the summed size fits max; a
// negative max never evicts.
type byteLRU[K comparable, V any] struct {
	max  int64
	size func(V) int64

	mu      sync.Mutex
	entries map[K]*list.Element // of *lruEntry[K, V]
	lru     *list.List          // front = most recently used
	bytes   int64

	evictions *obs.Counter
}

// lruEntry is one resident value and the bytes it was charged on insert.
type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

// lruMetricNames names a byteLRU's metric family: the eviction counter and
// the gauges of resident bytes and entries, each with its help string.
type lruMetricNames struct {
	evictions, evictionsHelp string
	bytes, bytesHelp         string
	entries, entriesHelp     string
}

// newByteLRU returns an empty cache holding at most maxBytes of values as
// measured by size (negative = unbounded), registering its metrics on r.
func newByteLRU[K comparable, V any](maxBytes int64, size func(V) int64, r *obs.Registry, names lruMetricNames) *byteLRU[K, V] {
	c := &byteLRU[K, V]{
		max:       maxBytes,
		size:      size,
		entries:   make(map[K]*list.Element),
		lru:       list.New(),
		evictions: r.Counter(names.evictions, names.evictionsHelp),
	}
	r.GaugeFunc(names.bytes, names.bytesHelp, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.bytes
	})
	r.GaugeFunc(names.entries, names.entriesHelp, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.lru.Len())
	})
	return c
}

// get returns the cached value for k and marks it most recently used. The
// value is shared and immutable: callers read it, never write into it.
func (c *byteLRU[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put inserts v under k, taking ownership, replaces any existing entry
// (last write wins) and evicts from the tail past the byte budget.
func (c *byteLRU[K, V]) put(k K, v V) {
	bytes := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[k]; ok {
		c.bytes -= old.Value.(*lruEntry[K, V]).bytes
		c.lru.Remove(old)
	}
	c.entries[k] = c.lru.PushFront(&lruEntry[K, V]{key: k, val: v, bytes: bytes})
	c.bytes += bytes
	for c.max >= 0 && c.bytes > c.max {
		e := c.lru.Remove(c.lru.Back()).(*lruEntry[K, V])
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions.Inc()
	}
}

// matching snapshots the resident entries whose key satisfies keep. The
// values are shared immutable references. keep runs under the cache's
// lock, so it must not call back into the cache.
func (c *byteLRU[K, V]) matching(keep func(K) bool) []lruEntry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []lruEntry[K, V]
	for k, el := range c.entries {
		if keep(k) {
			out = append(out, *el.Value.(*lruEntry[K, V]))
		}
	}
	return out
}
