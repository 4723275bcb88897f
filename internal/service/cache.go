package service

import (
	"context"
	"sync"
	"time"

	"sketchsp/internal/cache"
	"sketchsp/internal/core"
	"sketchsp/internal/obs"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// planKey identifies a cacheable plan: the structural fingerprint of the
// input matrix plus the sketch configuration. core.Options is a flat struct
// of scalars, so the key is comparable and map lookups allocate nothing.
// Options are keyed verbatim: requests that spell the same effective
// configuration differently (Workers 0 vs the resolved GOMAXPROCS) cache
// separately, which costs a duplicate plan but never a wrong answer.
type planKey struct {
	fp   sparse.Fingerprint
	d    int
	opts core.Options
}

// planSrc names where a plan's input matrix comes from. Exactly one form is
// set: a (inline request — the build deep-copies it) or store+fp
// (by-reference request — the build resolves and pins the stored matrix).
// It is a flat by-value struct, not a closure, so the cache-hit path stays
// allocation-free (TestServiceHitZeroAlloc pins this).
type planSrc struct {
	a     *sparse.CSC
	store *store.Store
	fp    sparse.Fingerprint
}

// entry is one cache slot: the single-flight build state plus the per-entry
// aggregation of execute metrics. The cache's reference to the plan is the
// initial NewPlan reference, released by entry.close on eviction; every
// request Retains around its own Execute.
type entry struct {
	key    planKey
	ready  chan struct{} // closed when the build finished (plan or err set)
	plan   *core.Plan
	handle *store.Handle // pin on the stored matrix a by-ref plan aliases
	err    error

	mu       sync.Mutex // guards the aggregates below
	executes int64
	steals   int64
	busy     time.Duration
	imbN     int64 // parallel rounds that measured an imbalance ratio
	imbSum   float64
	imbMax   float64
}

// record folds one execute's stats into the entry aggregates.
func (e *entry) record(st core.Stats) {
	e.mu.Lock()
	e.executes++
	e.steals += st.Steals
	e.busy += st.Total
	if st.Imbalance > 0 {
		e.imbN++
		e.imbSum += st.Imbalance
		if st.Imbalance > e.imbMax {
			e.imbMax = st.Imbalance
		}
	}
	e.mu.Unlock()
}

// close releases the cache's plan reference. It waits for an in-progress
// build first (an entry can be evicted while still building under churn);
// in-flight executes are unaffected — they hold their own references. The
// store pin, if any, is dropped here too: a straggling execute that outlives
// the cache's reference still reads the matrix safely (the plan keeps it
// reachable and stored matrices are immutable) — the pin only guarantees
// store *residency* while the plan is cached.
func (e *entry) close() {
	<-e.ready
	if e.plan != nil {
		e.plan.Close()
	}
	if e.handle != nil {
		e.handle.Release()
	}
}

// plan resolves the key to a live, Retain-ed plan, building it under
// single-flight on a miss. The caller must Release the returned plan. The
// returned entry is valid for stats recording as long as the plan is held.
//
// The hit path takes only the cache's lock. A miss inserts under s.mu, so
// that no insert can slip past Close's drain, and closes the plans it
// evicted on tracked goroutines that Close waits for.
//
// The retry loop covers one rare race: between observing a ready entry and
// Retain-ing its plan, an eviction plus the last concurrent Release may
// have shut the plan down. Retain then reports false and the request
// retries; the dead entry is no longer resident (only eviction and Close
// drop the cache's reference), so the retry rebuilds — correctness never
// depends on eviction timing.
func (s *Service) plan(ctx context.Context, k planKey, src planSrc) (*core.Plan, *entry, error) {
	for {
		e, ok := s.plans.Get(k)
		if !ok {
			var added bool
			var evicted []*entry
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return nil, nil, ErrClosed
			}
			e, added, evicted = s.plans.Add(k, &entry{key: k, ready: make(chan struct{})})
			s.closers.Add(len(evicted))
			s.mu.Unlock()
			for _, old := range evicted {
				// Closing may wait on a foreign in-progress build and on
				// in-flight executes; do it off the request path.
				go func() {
					defer s.closers.Done()
					old.close()
				}()
			}
			if added {
				s.met.misses.Inc()
				s.build(e, src)
			} else {
				ok = true // a racing request inserted it first
			}
		}
		if ok {
			s.met.hits.Inc()
		}

		select {
		case <-e.ready:
		case <-ctx.Done():
			s.met.cancels.Inc()
			return nil, nil, ctx.Err()
		}
		if e.err != nil {
			return nil, nil, e.err
		}
		if e.plan.Retain() {
			return e.plan, e, nil
		}
	}
}

// build constructs the plan for a freshly inserted entry and publishes the
// outcome by closing ready. Exactly one goroutine per entry runs this — the
// one that inserted it — which is the single-flight guarantee the
// concurrency suite asserts (builds == distinct keys, regardless of how
// many requests raced). A failed build removes the entry so later requests
// retry instead of caching the error forever.
func (s *Service) build(e *entry, src planSrc) {
	defer close(e.ready)
	// The cache keeps the plan alive long after this request returns, but
	// core.NewPlan aliases the matrix it is given (it clones only for
	// ScaledInt). For an inline source, callers are free to reuse or mutate
	// a's backing arrays once their request completes — the HTTP server
	// decodes requests into pooled scratch — so the cached plan must own a
	// private deep copy; otherwise later cache hits would execute against
	// whatever bytes the caller wrote there next. Cloning here keeps the hit
	// path untouched: the copy happens once per plan, on the build (miss)
	// path only.
	//
	// A by-ref source needs no copy at all: stored matrices are immutable
	// for life, so the plan aliases the store's copy and the entry pins it
	// resident with a Handle. A fingerprint that resolves to nothing (never
	// uploaded, or evicted) fails the build with store.ErrNotFound; the
	// entry is removed, so the client's upload-then-retry rebuilds cleanly.
	a := src.a
	if a != nil {
		a = a.Clone()
	} else {
		h, err := src.store.Get(src.fp)
		if err != nil {
			e.err = err
			s.dropFailedBuild(e)
			return
		}
		e.handle = h
		a = h.Matrix()
	}
	p, err := core.NewPlan(a, e.key.d, e.key.opts)
	if err != nil {
		e.err = err
		if e.handle != nil {
			e.handle.Release()
			e.handle = nil
		}
		s.dropFailedBuild(e)
		return
	}
	s.met.builds.Inc()
	// Attach the shared execute-stage metrics before the entry is published
	// (close(ready) gives the happens-before edge): every execute on any
	// cached plan lands in the same sketchsp_plan_* series.
	p.SetMetrics(s.met.plan)
	e.plan = p
}

// dropFailedBuild unmaps an entry whose build failed so later requests for
// the key retry instead of caching the error forever.
func (s *Service) dropFailedBuild(e *entry) {
	s.met.buildErrors.Inc()
	s.plans.Remove(e.key, e)
}

// newPlanCache returns the plan cache: capacity plans, each sized 1.
func newPlanCache(capacity int, r *obs.Registry) *cache.LRU[planKey, *entry] {
	return cache.New[planKey](int64(capacity), func(*entry) int64 { return 1 }, r, cache.Names{
		Evictions:     "sketchsp_service_cache_evictions_total",
		EvictionsHelp: "Plans evicted from the LRU cache.",
		Entries:       "sketchsp_service_cached_plans",
		EntriesHelp:   "Plans currently resident in the LRU cache.",
	})
}
