package analysis

import (
	"sketchsp/internal/sparse"
)

// The cache simulator measures the actual data movement of the paper's
// kernels under the §III one-level cache model: a fully associative LRU
// cache of 64-byte lines in front of an infinite memory. Running the access
// trace of Algorithm 3 (on-the-fly S) against the pre-generated-S variant
// shows the traffic the recomputation trick removes, validating Eq. (4)'s
// accounting empirically.

// Cache is a fully associative LRU cache over 64-byte lines.
type Cache struct {
	capacity int
	nodes    map[uint64]*lruNode
	head     *lruNode // most recent
	tail     *lruNode // least recent
	// Misses counts line fills; Accesses counts all touches.
	Misses   int64
	Accesses int64
}

type lruNode struct {
	key        uint64
	prev, next *lruNode
}

// NewCache builds a cache holding `lines` 64-byte lines.
func NewCache(lines int) *Cache {
	if lines < 1 {
		lines = 1
	}
	return &Cache{capacity: lines, nodes: make(map[uint64]*lruNode, lines+1)}
}

// CapacityEntries returns the cache size in float64 entries (the model's M).
func (c *Cache) CapacityEntries() float64 { return float64(c.capacity) * 8 }

// Access touches one 8-byte element at address addr (byte granularity);
// returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> 6
	c.Accesses++
	if n, ok := c.nodes[line]; ok {
		c.moveToFront(n)
		return true
	}
	c.Misses++
	n := &lruNode{key: line}
	c.nodes[line] = n
	c.pushFront(n)
	if len(c.nodes) > c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.nodes, evict.key)
	}
	return false
}

func (c *Cache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// Address-space bases keep the traced arrays from aliasing.
const (
	baseAhat uint64 = 1 << 40
	baseAVal uint64 = 2 << 40
	baseAIdx uint64 = 3 << 40
	baseS    uint64 = 4 << 40
)

// Traffic summarises a traced kernel execution.
type Traffic struct {
	// Misses is the number of 64-byte line fills.
	Misses int64
	// Accesses is the number of element touches.
	Accesses int64
	// Samples is the number of random values generated on the fly.
	Samples int64
	// Flops is the useful floating-point work (2 per multiply-add).
	Flops int64
}

// MovedEntries returns data movement in float64 entries (8 per line).
func (t Traffic) MovedEntries() float64 { return float64(t.Misses) * 8 }

// CI returns the measured computational intensity under the model's
// combined cost: flops / (moved entries + h · samples).
func (t Traffic) CI(h float64) float64 {
	den := t.MovedEntries() + h*float64(t.Samples)
	if den == 0 {
		return 0
	}
	return float64(t.Flops) / den
}

// TraceAlg3 replays Algorithm 3's memory accesses (Â strided updates, CSC
// value+index reads, S regenerated — no S traffic) through the cache with
// outer blocking (bd, bn). The scratch vector v is assumed register/L1
// resident (it is d1 entries, by construction far below cache size).
func TraceAlg3(a *sparse.CSC, d, bd, bn int, cache *Cache) Traffic {
	var tr Traffic
	for j0 := 0; j0 < a.N; j0 += bn {
		j1 := min(a.N, j0+bn)
		for i0 := 0; i0 < d; i0 += bd {
			d1 := min(d, i0+bd) - i0
			for k := j0; k < j1; k++ {
				lo, hi := a.ColPtr[k], a.ColPtr[k+1]
				for p := lo; p < hi; p++ {
					cache.Access(baseAVal + uint64(p)*8)
					cache.Access(baseAIdx + uint64(p)*8)
					tr.Samples += int64(d1)
					colBase := baseAhat + uint64(k)*uint64(d)*8 + uint64(i0)*8
					for i := 0; i < d1; i++ {
						cache.Access(colBase + uint64(i)*8)
					}
					tr.Flops += 2 * int64(d1)
				}
			}
		}
	}
	tr.Misses = cache.Misses
	tr.Accesses = cache.Accesses
	return tr
}

// TraceAlg4 replays Algorithm 4's accesses: per nonempty slab row, one
// generation of d1 samples reused across the row's nonzeros.
func TraceAlg4(a *sparse.CSC, d, bd, bn int, cache *Cache) Traffic {
	var tr Traffic
	blocked := sparse.NewBlockedCSRPartition(a, sparse.UniformColSplit(a.N, bn), 1)
	for bk, slab := range blocked.Blocks {
		j0 := blocked.ColStart[bk]
		for i0 := 0; i0 < d; i0 += bd {
			d1 := min(d, i0+bd) - i0
			for r := range slab.Rows {
				tr.Samples += int64(d1)
				for p := slab.Off[r]; p < slab.Off[r+1]; p++ {
					cache.Access(baseAVal + uint64(p)*8)
					cache.Access(baseAIdx + uint64(p)*8)
					k := j0 + slab.ColIdx[p]
					colBase := baseAhat + uint64(k)*uint64(d)*8 + uint64(i0)*8
					for i := 0; i < d1; i++ {
						cache.Access(colBase + uint64(i)*8)
					}
					tr.Flops += 2 * int64(d1)
				}
			}
		}
	}
	tr.Misses = cache.Misses
	tr.Accesses = cache.Accesses
	return tr
}

// TracePregen replays the pre-generated-S variant: identical to Algorithm 3
// except each sample becomes a memory read of S (d×m column-major), which is
// the traffic recomputation eliminates.
func TracePregen(a *sparse.CSC, d, bd, bn int, cache *Cache) Traffic {
	var tr Traffic
	for j0 := 0; j0 < a.N; j0 += bn {
		j1 := min(a.N, j0+bn)
		for i0 := 0; i0 < d; i0 += bd {
			d1 := min(d, i0+bd) - i0
			for k := j0; k < j1; k++ {
				lo, hi := a.ColPtr[k], a.ColPtr[k+1]
				for p := lo; p < hi; p++ {
					cache.Access(baseAVal + uint64(p)*8)
					cache.Access(baseAIdx + uint64(p)*8)
					j := a.RowIdx[p]
					sColBase := baseS + uint64(j)*uint64(d)*8 + uint64(i0)*8
					colBase := baseAhat + uint64(k)*uint64(d)*8 + uint64(i0)*8
					for i := 0; i < d1; i++ {
						cache.Access(sColBase + uint64(i)*8)
						cache.Access(colBase + uint64(i)*8)
					}
					tr.Flops += 2 * int64(d1)
				}
			}
		}
	}
	tr.Misses = cache.Misses
	tr.Accesses = cache.Accesses
	return tr
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
