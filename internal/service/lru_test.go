package service

import (
	"bytes"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
)

// lruUse adapts one of the service's byte-sized caches to int keys and
// int-tagged values of one fixed size, so a single table drives both.
type lruUse struct {
	put func(key, tag int)
	get func(key int) (tag int, ok bool)
	max int64
}

// TestByteLRU drives the Â cache and the preconditioner cache through the
// same script: budget trim from the LRU tail, recency on get, replace
// (last write wins, no eviction), an oversize value that outlives its own
// insert, the eviction counter and the resident gauges under their metric
// names, and the unbounded and default budgets.
func TestByteLRU(t *testing.T) {
	const cols = 4 // values are a 2×cols Â and a cols-long Σ
	sketchUse := func(maxBytes int64, r *obs.Registry) lruUse {
		c := newSketchCache(maxBytes, r)
		key := func(i int) planKey { return planKey{d: i + 1} }
		return lruUse{
			put: func(i, tag int) {
				m := dense.NewMatrix(2, cols)
				m.Data[0] = float64(tag)
				c.Put(key(i), m)
			},
			get: func(i int) (int, bool) {
				m, ok := c.Get(key(i))
				if !ok {
					return 0, false
				}
				return int(m.Data[0]), true
			},
			max: c.Max(),
		}
	}
	precondUse := func(maxBytes int64, r *obs.Registry) lruUse {
		c := newPrecondCache(maxBytes, r)
		key := func(i int) precondKey {
			return precondKey{fp: sparse.Fingerprint{NNZ: i}, method: solver.MethodSAPQR, d: 3, opts: core.Options{Seed: 1}}
		}
		return lruUse{
			put: func(i, tag int) {
				sigma := make([]float64, cols)
				sigma[0] = float64(tag)
				c.Put(key(i), &solver.Precond{Sigma: sigma})
			},
			get: func(i int) (int, bool) {
				p, ok := c.Get(key(i))
				if !ok {
					return 0, false
				}
				return int(p.Sigma[0]), true
			},
			max: c.Max(),
		}
	}
	uses := []struct {
		name                    string
		make                    func(int64, *obs.Registry) lruUse
		size, def               int64
		evictions, bytes, count string
	}{
		{"sketch", sketchUse, 2 * cols * 8, DefaultSketchCacheBytes,
			"sketchsp_ref_sketch_cache_evictions_total", "sketchsp_ref_sketch_cache_bytes", "sketchsp_ref_sketch_cache_entries"},
		{"precond", precondUse, cols * 8, DefaultPrecondCacheBytes,
			"sketchsp_solve_precond_evictions_total", "sketchsp_solve_precond_cache_bytes", "sketchsp_solve_precond_cache_entries"},
	}
	for _, u := range uses {
		t.Run(u.name, func(t *testing.T) {
			scrape := func(r *obs.Registry) (evictions, resident, entries float64) {
				t.Helper()
				var buf bytes.Buffer
				if err := r.WriteText(&buf); err != nil {
					t.Fatal(err)
				}
				mm, err := obs.ParseText(&buf)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{u.evictions, u.bytes, u.count} {
					if _, ok := mm[name]; !ok {
						t.Fatalf("metric %s not registered", name)
					}
				}
				return mm[u.evictions], mm[u.bytes], mm[u.count]
			}
			expect := func(r *obs.Registry, evictions, entries int) {
				t.Helper()
				ev, b, n := scrape(r)
				if ev != float64(evictions) || n != float64(entries) || b != float64(int64(entries)*u.size) {
					t.Fatalf("evictions/entries/bytes = %v/%v/%v, want %d/%d/%d",
						ev, n, b, evictions, entries, int64(entries)*u.size)
				}
			}
			present := func(c lruUse, key, tag int) {
				t.Helper()
				if got, ok := c.get(key); !ok || got != tag {
					t.Fatalf("get(%d) = %d, %v; want %d, true", key, got, ok, tag)
				}
			}
			absent := func(c lruUse, key int) {
				t.Helper()
				if _, ok := c.get(key); ok {
					t.Fatalf("get(%d) hit; want evicted", key)
				}
			}

			if c := u.make(0, obs.NewRegistry()); c.max != u.def {
				t.Fatalf("budget 0 resolved to %d, want the default %d", c.max, u.def)
			}

			// Budget of three entries: the fourth put trims the tail.
			r := obs.NewRegistry()
			c := u.make(3*u.size, r)
			for i := 0; i < 4; i++ {
				c.put(i, 10+i)
			}
			expect(r, 1, 3)
			absent(c, 0)
			present(c, 1, 11)
			// get(1) made key 2 the tail, so the next put evicts 2, not 1.
			c.put(4, 14)
			expect(r, 2, 3)
			absent(c, 2)
			present(c, 1, 11)
			present(c, 3, 13)
			// Replace: the newer value wins, the byte charge is not doubled
			// and nothing is evicted.
			c.put(3, 99)
			expect(r, 2, 3)
			present(c, 3, 99)
			present(c, 4, 14)

			// A value larger than the whole budget: an insert never evicts
			// itself, so it stays resident and the next get serves it; the
			// next insert trims it.
			r = obs.NewRegistry()
			c = u.make(u.size/2, r)
			c.put(0, 7)
			expect(r, 0, 1)
			present(c, 0, 7)
			c.put(1, 8)
			expect(r, 1, 1)
			absent(c, 0)
			present(c, 1, 8)

			// Negative budget: never evicts.
			r = obs.NewRegistry()
			c = u.make(-1, r)
			for i := 0; i < 50; i++ {
				c.put(i, i)
			}
			expect(r, 0, 50)
			present(c, 0, 0)
		})
	}
}
