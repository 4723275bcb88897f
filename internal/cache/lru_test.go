package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sketchsp/internal/obs"
)

// item is a test value: a unique identity and the size the cache charges.
type item struct {
	id   int64
	size int64
}

func itemSize(v *item) int64 { return v.size }

func newItemLRU(max int64) *LRU[int, *item] {
	return New[int](max, itemSize, obs.NewRegistry(), Names{})
}

// checkLocked verifies the cache's structure with c.mu held: the map and
// the recency list hold the same nodes, the byte total is the sum of the
// resident sizes, and no refcount is negative. It returns the unpinned
// resident values, for the budget rule.
func checkLocked(c *LRU[int, *item]) (unpinned []*item, err error) {
	var bytes int64
	n := 0
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		if nd.next.prev != nd {
			return nil, fmt.Errorf("list broken at key %d", nd.key)
		}
		if c.nodes[nd.key] != nd {
			return nil, fmt.Errorf("key %d is listed but not mapped to its node", nd.key)
		}
		if nd.refs < 0 {
			return nil, fmt.Errorf("key %d has %d refs", nd.key, nd.refs)
		}
		if nd.refs == 0 {
			unpinned = append(unpinned, nd.val)
		}
		bytes += nd.size
		n++
	}
	if n != len(c.nodes) {
		return nil, fmt.Errorf("%d nodes listed, %d mapped", n, len(c.nodes))
	}
	if bytes != c.bytes {
		return nil, fmt.Errorf("byte total %d, resident sizes sum to %d", c.bytes, bytes)
	}
	return unpinned, nil
}

// model is the map the property test runs beside the cache: resident
// values by key, live pins per value, evictions seen, and the value of the
// last insert (the one entry the budget may spare unpinned).
type model struct {
	max      int64
	vals     map[int]*item
	pins     map[*item]int
	evicted  int64
	inserted *item
}

// evict applies values an operation reports evicted: each must have been
// resident, unpinned, and not the value just inserted.
func (m *model) evict(op string, out []*item, inserted *item) error {
	for _, v := range out {
		if v == inserted {
			return fmt.Errorf("%s evicted the value it inserted", op)
		}
		if m.pins[v] > 0 {
			return fmt.Errorf("%s evicted pinned value %d", op, v.id)
		}
		found := false
		for k, cur := range m.vals {
			if cur == v {
				delete(m.vals, k)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s evicted value %d, which was not resident", op, v.id)
		}
		m.evicted++
	}
	return nil
}

// check compares the cache with the model after an operation.
func (m *model) check(c *LRU[int, *item]) error {
	c.mu.Lock()
	unpinned, err := checkLocked(c)
	if err == nil {
		for k, v := range m.vals {
			if n, ok := c.nodes[k]; !ok || n.val != v {
				err = fmt.Errorf("key %d: model holds value %d, cache does not", k, v.id)
			} else if n.refs != m.pins[v] {
				err = fmt.Errorf("key %d: %d refs, model has %d pins", k, n.refs, m.pins[v])
			}
		}
		if len(c.nodes) != len(m.vals) {
			err = fmt.Errorf("cache holds %d entries, model %d", len(c.nodes), len(m.vals))
		}
		if m.max >= 0 && c.bytes > m.max {
			for _, v := range unpinned {
				if v != m.inserted {
					err = fmt.Errorf("%d bytes over a budget of %d with value %d unpinned", c.bytes, m.max, v.id)
				}
			}
		}
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if got := c.Evictions(); got != m.evicted {
		return fmt.Errorf("eviction counter %d, %d entries evicted", got, m.evicted)
	}
	return nil
}

type heldPin struct {
	v   *item
	pin Pin[int, *item]
}

// TestLRUProperty runs random put/add/get/pin/unpin/remove/clear sequences
// against the map model and checks, after every operation, the byte total,
// the refcounts, that no pinned entry is evicted, that any excess over the
// budget is pinned or is the entry just inserted, and the eviction counter.
func TestLRUProperty(t *testing.T) {
	const keys, ops = 8, 4000
	for _, max := range []int64{-1, 0, 10, 40, 100} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("max=%d/seed=%d", max, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				c := newItemLRU(max)
				m := &model{max: max, vals: map[int]*item{}, pins: map[*item]int{}}
				var held []heldPin
				var nextID int64
				newItem := func() *item {
					nextID++
					// Sizes up to 30 exceed the 10- and 0-byte budgets whole.
					return &item{id: nextID, size: r.Int63n(31)}
				}
				for op := 0; op < ops; op++ {
					k := r.Intn(keys)
					var name string
					var err error
					switch x := r.Intn(100); {
					case x < 20:
						name = "Add"
						v := newItem()
						cur, added, out := c.Add(k, v)
						if old, ok := m.vals[k]; ok {
							if added || cur != old || out != nil {
								err = fmt.Errorf("Add over resident key %d: added=%v", k, added)
							}
							break
						}
						if !added || cur != v {
							err = fmt.Errorf("Add of absent key %d did not insert", k)
							break
						}
						m.vals[k], m.inserted = v, v
						err = m.evict(name, out, v)
					case x < 35:
						name = "Put"
						v := newItem()
						out := c.Put(k, v)
						m.vals[k], m.inserted = v, v // last write wins
						err = m.evict(name, out, v)
					case x < 55:
						name = "Get"
						v, ok := c.Get(k)
						if want, in := m.vals[k]; ok != in || v != want {
							err = fmt.Errorf("Get(%d) = %v, %v; model has %v, %v", k, v, ok, want, in)
						}
					case x < 70:
						name = "Pin"
						v, pin, ok := c.Pin(k)
						if want, in := m.vals[k]; ok != in || v != want {
							err = fmt.Errorf("Pin(%d) = %v, %v; model has %v, %v", k, v, ok, want, in)
							break
						}
						if ok {
							m.pins[v]++
							held = append(held, heldPin{v, pin})
						}
					case x < 88:
						name = "Unpin"
						if len(held) == 0 {
							continue
						}
						i := r.Intn(len(held))
						h := held[i]
						held = append(held[:i], held[i+1:]...)
						m.pins[h.v]--
						err = m.evict(name, h.pin.Unpin(), nil)
					case x < 98:
						name = "Remove"
						v, in := m.vals[k]
						if r.Intn(4) == 0 {
							v = newItem() // a stale value: must not remove
							in = false
						}
						if got := c.Remove(k, v); got != in {
							err = fmt.Errorf("Remove(%d) = %v, want %v", k, got, in)
						} else if in {
							delete(m.vals, k)
						}
					default:
						name = "Clear"
						if got := len(c.Clear()); got != len(m.vals) {
							err = fmt.Errorf("Clear returned %d values, model has %d", got, len(m.vals))
						}
						m.vals = map[int]*item{}
					}
					if err == nil {
						err = m.check(c)
					}
					if err != nil {
						t.Fatalf("op %d (%s key %d): %v", op, name, k, err)
					}
				}
				for _, h := range held {
					m.pins[h.v]--
					if err := m.evict("final Unpin", h.pin.Unpin(), nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.check(c); err != nil {
					t.Fatal(err)
				}
				if max >= 0 && c.Bytes() > max && c.Len() > 1 {
					t.Fatalf("no pins left, yet %d entries hold %d bytes over a budget of %d", c.Len(), c.Bytes(), max)
				}
			})
		}
	}
}

// TestLRUConcurrent runs the property test's operations from several
// goroutines at once (CI runs it under -race). The structure is checked
// under the cache's lock after every operation; an excess over the budget
// may hold at most one unpinned entry, the last insert. A goroutine
// registers a pin after Pin returns and drops it before Unpin, so a value
// registered as pinned must never come back evicted. The eviction counter
// must equal the evicted values returned across all goroutines.
func TestLRUConcurrent(t *testing.T) {
	const (
		goroutines = 6
		ops        = 3000
		keys       = 12
		max        = 60
	)
	c := newItemLRU(max)
	var (
		nextID  atomic.Int64
		evicted atomic.Int64
		pinMu   sync.Mutex
		pinned  = map[*item]int{}
		wg      sync.WaitGroup
		errs    = make(chan error, goroutines)
	)
	evict := func(out []*item) error {
		pinMu.Lock()
		defer pinMu.Unlock()
		for _, v := range out {
			if pinned[v] > 0 {
				return fmt.Errorf("pinned value %d evicted", v.id)
			}
		}
		evicted.Add(int64(len(out)))
		return nil
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			var held []heldPin
			unpin := func(h heldPin) error {
				pinMu.Lock()
				pinned[h.v]--
				pinMu.Unlock()
				return evict(h.pin.Unpin())
			}
			for op := 0; op < ops; op++ {
				k := r.Intn(keys)
				var err error
				switch x := r.Intn(100); {
				case x < 20:
					_, _, out := c.Add(k, &item{id: nextID.Add(1), size: r.Int63n(25)})
					err = evict(out)
				case x < 35:
					err = evict(c.Put(k, &item{id: nextID.Add(1), size: r.Int63n(25)}))
				case x < 55:
					c.Get(k)
				case x < 75:
					if len(held) < 3 {
						if v, pin, ok := c.Pin(k); ok {
							pinMu.Lock()
							pinned[v]++
							pinMu.Unlock()
							held = append(held, heldPin{v, pin})
						}
					}
				case x < 95:
					if len(held) > 0 {
						i := r.Intn(len(held))
						h := held[i]
						held = append(held[:i], held[i+1:]...)
						err = unpin(h)
					}
				default:
					if v, ok := c.Get(k); ok {
						c.Remove(k, v)
					}
				}
				if err == nil {
					c.mu.Lock()
					var unpinned []*item
					if unpinned, err = checkLocked(c); err == nil && c.bytes > max && len(unpinned) > 1 {
						err = fmt.Errorf("%d bytes over a budget of %d with %d entries unpinned", c.bytes, max, len(unpinned))
					}
					c.mu.Unlock()
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d op %d: %w", g, op, err)
					return
				}
			}
			for _, h := range held {
				if err := unpin(h); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := c.Evictions(), evicted.Load(); got != want {
		t.Fatalf("eviction counter %d, %d values evicted", got, want)
	}
	if c.Bytes() > max && c.Len() > 1 {
		t.Fatalf("no pins left, yet %d entries hold %d bytes over a budget of %d", c.Len(), c.Bytes(), max)
	}
}
