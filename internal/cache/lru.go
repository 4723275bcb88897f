// Package cache is the one LRU under the serving stack: the plan cache
// (each plan sized 1, so the budget counts plans), the content-addressed
// matrix store, and the Â and preconditioner caches (sized in bytes).
//
// Its rules hold for every user (DESIGN §6): Get, Pin and a duplicate Add
// mark an entry most recently used, and the trim walks from the least
// recently used end; a pinned entry is skipped, so the budget may
// overshoot until its last pin is released, which re-trims; an insert
// never evicts the entry it inserts, so a value larger than the whole
// budget is still served until the next trim; Put replaces a resident
// value (last write wins); a negative budget is unbounded. Evicted values
// go back to the caller, which closes them outside the lock.
package cache

import (
	"sync"

	"sketchsp/internal/obs"
)

// Names names an LRU's metric family on an obs.Registry: the eviction
// counter and the gauges of resident size and entries, each with its help
// string. An empty name registers nothing.
type Names struct {
	Evictions, EvictionsHelp string
	Bytes, BytesHelp         string
	Entries, EntriesHelp     string
}

// node is one resident entry, linked into the recency list.
type node[K comparable, V comparable] struct {
	key        K
	val        V
	size       int64
	refs       int // live pins; > 0 skips the node in the trim
	prev, next *node[K, V]
}

// LRU is a size-bounded, pin-aware least-recently-used map. Safe for
// concurrent use.
type LRU[K comparable, V comparable] struct {
	max       int64
	size      func(V) int64
	evictions *obs.Counter

	mu    sync.Mutex
	nodes map[K]*node[K, V]
	root  node[K, V] // list sentinel: root.next is the most recently used
	bytes int64
}

// New returns an empty LRU holding at most max of values as measured by
// size (negative = unbounded), with its metrics registered on r.
func New[K comparable, V comparable](max int64, size func(V) int64, r *obs.Registry, names Names) *LRU[K, V] {
	c := &LRU[K, V]{max: max, size: size, nodes: make(map[K]*node[K, V]), evictions: new(obs.Counter)}
	c.root.prev, c.root.next = &c.root, &c.root
	if names.Evictions != "" {
		c.evictions = r.Counter(names.Evictions, names.EvictionsHelp)
	}
	if names.Bytes != "" {
		r.GaugeFunc(names.Bytes, names.BytesHelp, c.Bytes)
	}
	if names.Entries != "" {
		r.GaugeFunc(names.Entries, names.EntriesHelp, func() int64 { return int64(c.Len()) })
	}
	return c
}

// Get returns the value under k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	v, _, ok := c.get(k, false)
	return v, ok
}

// Pin is Get that also pins the entry against eviction until the returned
// Pin's Unpin.
func (c *LRU[K, V]) Pin(k K) (V, Pin[K, V], bool) { return c.get(k, true) }

func (c *LRU[K, V]) get(k K, pin bool) (v V, p Pin[K, V], ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[k]
	if !ok {
		return v, p, false
	}
	if pin {
		n.refs++
		p = Pin[K, V]{c: c, n: n}
	}
	c.moveToFront(n)
	return n.val, p, true
}

// Contains reports whether k is resident without touching recency or pins.
func (c *LRU[K, V]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.nodes[k]
	return ok
}

// Add inserts v under k unless k is resident, in which case it marks the
// resident value most recently used and returns it with added false. An
// insert returns the values the trim evicted.
func (c *LRU[K, V]) Add(k K, v V) (cur V, added bool, evicted []V) {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[k]; ok {
		c.moveToFront(n)
		return n.val, false, nil
	}
	return v, true, c.insert(k, v, size)
}

// Put inserts v under k, replacing a resident value (last write wins; the
// replaced value is dropped, not returned), and returns the values the
// trim evicted.
func (c *LRU[K, V]) Put(k K, v V) (evicted []V) {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.nodes[k]; ok {
		c.unlink(old)
	}
	return c.insert(k, v, size)
}

// Remove drops k if it still holds v and reports whether it did. It is
// not an eviction; pins on the removed entry stay harmless.
func (c *LRU[K, V]) Remove(k K, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[k]
	if ok = ok && n.val == v; ok {
		c.unlink(n)
	}
	return ok
}

// Clear empties the cache, pinned entries included, and returns the values
// most recently used first. It is not an eviction.
func (c *LRU[K, V]) Clear() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []V
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.val)
	}
	c.nodes, c.bytes = make(map[K]*node[K, V]), 0
	c.root.prev, c.root.next = &c.root, &c.root
	return out
}

// Each calls f on every resident entry, most recently used first, under
// the cache's lock: f must not call back into the cache.
func (c *LRU[K, V]) Each(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.root.next; n != &c.root; n = n.next {
		f(n.key, n.val)
	}
}

// Len returns the number of resident entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Bytes returns the summed size of the resident entries.
func (c *LRU[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Max returns the budget (negative = unbounded).
func (c *LRU[K, V]) Max() int64 { return c.max }

// Evictions returns how many entries the trim has removed.
func (c *LRU[K, V]) Evictions() int64 { return c.evictions.Value() }

// Pin holds one entry against eviction. The zero Pin holds nothing.
type Pin[K comparable, V comparable] struct {
	c *LRU[K, V]
	n *node[K, V]
}

// Unpin releases the pin; call it once. Releasing an entry's last pin
// re-trims, since this entry may be what holds the cache over budget, and
// returns the values evicted.
func (p Pin[K, V]) Unpin() []V {
	if p.c == nil {
		return nil
	}
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	if p.n.refs--; p.n.refs > 0 {
		return nil
	}
	return p.c.trim(nil)
}

// insert links a fresh node for (k, v) and trims, sparing it. Called with
// c.mu held and k not resident.
func (c *LRU[K, V]) insert(k K, v V, size int64) []V {
	n := &node[K, V]{key: k, val: v, size: size}
	c.nodes[k] = n
	c.bytes += size
	c.moveToFront(n)
	return c.trim(n)
}

// trim evicts from the least recently used end until the budget holds,
// skipping pinned entries and keep. Called with c.mu held.
func (c *LRU[K, V]) trim(keep *node[K, V]) (evicted []V) {
	for n := c.root.prev; n != &c.root && c.max >= 0 && c.bytes > c.max; n = n.prev {
		if n.refs == 0 && n != keep {
			c.unlink(n)
			c.evictions.Inc()
			evicted = append(evicted, n.val)
		}
	}
	return evicted
}

// unlink removes a resident node from the map, the list and the byte
// total; the node keeps its links, so a walk can step on from it. Called
// with c.mu held.
func (c *LRU[K, V]) unlink(n *node[K, V]) {
	delete(c.nodes, n.key)
	c.bytes -= n.size
	n.prev.next, n.next.prev = n.next, n.prev
}

// moveToFront links n, resident or fresh, at the most recently used end.
// Called with c.mu held.
func (c *LRU[K, V]) moveToFront(n *node[K, V]) {
	if n.next != nil {
		n.prev.next, n.next.prev = n.next, n.prev
	}
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
