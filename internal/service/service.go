// Package service is the concurrent sketch-serving layer: it fronts
// core.Plan for many simultaneous callers, holding plans hot across
// requests the way the one-shot Sketch surface cannot.
//
// The on-the-fly regeneration that defines this codebase is what makes the
// layer cheap: a cached plan stores no materialised S — only the blocked
// structure, samplers and scratch — so keeping tens of plans resident costs
// little more than the input matrices themselves, and every cache hit runs
// at Plan.Execute's allocation-free steady state.
//
// Three mechanisms compose (DESIGN.md §6):
//
//   - Plan cache. Requests are keyed by the CSC structural fingerprint
//     (sparse.Fingerprint: shape, nnz, chained hash of ColPtr/RowIdx/Val)
//     plus (d, Options). Misses build under single-flight — N concurrent
//     requests for a new key construct exactly one plan — and eviction is
//     LRU with reference counting: evicting a plan releases the cache's
//     reference while in-flight executes hold their own, so a plan is
//     never shut down mid-Execute.
//
//   - Admission gate. At most MaxInFlight requests run concurrently;
//     excess requests queue context-aware (a deadline or cancel unblocks
//     them), and beyond MaxQueue waiters the service sheds load with
//     ErrOverloaded instead of building an unbounded convoy.
//
//   - Observability. Hit/miss/build/eviction counters, live queue depth,
//     a log₂ latency histogram with quantiles, and the per-plan execute
//     metrics (steals, measured imbalance) aggregated per cache entry —
//     all in one Stats snapshot.
package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"sketchsp/internal/cache"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// Service-level errors. Argument and plan errors surface as the core typed
// errors (core.ErrNilMatrix, core.ErrInvalidSketchSize, ...); these two are
// the service's own.
var (
	// ErrClosed is returned for requests issued after Close.
	ErrClosed = errors.New("service: closed")
	// ErrOverloaded is returned when the admission queue is full
	// (backpressure: the caller should retry later or shed the request).
	ErrOverloaded = errors.New("service: admission queue full")
)

// Config sizes the service. The zero value selects sensible defaults.
type Config struct {
	// Capacity is the maximum number of cached plans (LRU-evicted beyond
	// it). 0 selects 16.
	Capacity int
	// MaxInFlight bounds concurrently executing requests. 0 selects
	// GOMAXPROCS. Note each Plan saturates its own worker pool, so values
	// far above the core count mostly add queueing inside the plans.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an admission slot; beyond it
	// requests fail fast with ErrOverloaded. 0 means unbounded queueing
	// (still context-aware). The bound is approximate under contention.
	MaxQueue int
	// RequestTimeout, when positive, imposes a per-request deadline on top
	// of the caller's context.
	RequestTimeout time.Duration
	// StoreBytes bounds the content-addressed matrix store behind the
	// by-reference surface (PutMatrix / SketchRefInto / PatchMatrix).
	// 0 selects store.DefaultMaxBytes; negative means unbounded.
	StoreBytes int64
	// SketchCacheBytes bounds the cache of computed sketches Â that backs
	// repeat by-reference requests and the incremental PATCH path. 0 selects
	// 64 MiB; negative means unbounded.
	SketchCacheBytes int64
	// PrecondCacheBytes bounds the cache of preconditioner factors behind
	// the solve surface. 0 selects 32 MiB; negative means unbounded.
	PrecondCacheBytes int64
	// Metrics is the observability registry the service registers its
	// counters and histograms on (sketchsp_service_* and the shared
	// sketchsp_plan_* families). nil creates a private registry,
	// retrievable with Registry(). Share one registry across the layers of
	// one serving stack (service + HTTP server), not across services — the
	// families would merge.
	Metrics *obs.Registry
}

// Service is the concurrent sketch server. Create with New, issue requests
// with Sketch / SketchInto / SketchBatch from any number of goroutines, and
// Close when done. All methods are safe for concurrent use.
type Service struct {
	cfg Config
	sem chan struct{} // admission slots

	// Counters, gauges and the latency histogram live in the obs registry
	// (metrics.go): Stats() and /metrics read the very same atomics, so the
	// two views cannot drift apart.
	reg *obs.Registry
	met *svcMetrics

	// Content-addressed surface (byref.go): uploaded matrices and the cache
	// of computed sketches that makes repeat by-ref requests and PATCH
	// deltas O(1) in nnz(A).
	store    *store.Store
	sketches *cache.LRU[planKey, *dense.Matrix]
	refMet   *refMetrics

	// Solve surface (solve.go): preconditioner factor cache and the
	// sketchsp_solve_* metric family.
	preconds *cache.LRU[precondKey, *solver.Precond]
	solveMet *solveMetrics

	plans   *cache.LRU[planKey, *entry]
	closers sync.WaitGroup // goroutines closing evicted plans

	mu     sync.Mutex // orders plan-cache inserts against Close
	closed bool
}

// New returns a ready Service.
func New(cfg Config) *Service {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return &Service{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		reg:      cfg.Metrics,
		met:      newSvcMetrics(cfg.Metrics),
		refMet:   newRefMetrics(cfg.Metrics),
		store:    store.New(store.Config{MaxBytes: cfg.StoreBytes, Metrics: cfg.Metrics}),
		sketches: newSketchCache(cfg.SketchCacheBytes, cfg.Metrics),
		preconds: newPrecondCache(cfg.PrecondCacheBytes, cfg.Metrics),
		solveMet: newSolveMetrics(cfg.Metrics),
		plans:    newPlanCache(cfg.Capacity, cfg.Metrics),
	}
}

// Registry returns the obs registry holding the service's metrics — the
// HTTP layer mounts its /metrics endpoint on it and registers its own
// transport families alongside.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Sketch computes Â = S·A through the plan cache and returns it in a fresh
// d×n matrix. See SketchInto for the semantics.
func (s *Service) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	if a == nil {
		return nil, core.Stats{}, core.ErrNilMatrix
	}
	ahat := dense.NewMatrix(max(d, 0), a.N)
	st, err := s.SketchInto(ctx, ahat, a, d, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return ahat, st, nil
}

// SketchInto computes Â = S·A into the caller's d×n matrix, overwriting it.
// The request is admitted through the backpressure gate, resolved against
// the plan cache (building the plan under single-flight on a miss), and
// executed with the caller's context propagated into the worker pool. On a
// cache hit the whole path — admission, fingerprint, lookup, execute —
// allocates nothing, which is what makes the service viable at high request
// rates (BenchmarkServiceHit pins this).
//
// The result is bit-identical to a fresh one-shot Sketch with the same
// (a, d, opts) — cached plans cannot change the sketch values — which the
// differential suite asserts across the configuration space.
//
// The service does not retain a beyond the call: a cached plan is built
// from its own deep copy of the matrix, so callers may reuse or mutate a's
// backing arrays as soon as SketchInto returns.
func (s *Service) SketchInto(ctx context.Context, ahat *dense.Matrix, a *sparse.CSC, d int, opts core.Options) (core.Stats, error) {
	start := time.Now()
	if a == nil {
		return core.Stats{}, core.ErrNilMatrix
	}
	if d <= 0 {
		return core.Stats{}, core.ErrInvalidSketchSize
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if err := s.admit(ctx); err != nil {
		return core.Stats{}, err
	}
	defer s.exit()

	p, e, err := s.plan(ctx, planKey{fp: a.Fingerprint(), d: d, opts: opts}, planSrc{a: a})
	if err != nil {
		return core.Stats{}, err
	}
	defer p.Release()
	st, err := p.ExecuteContext(ctx, ahat)
	if err != nil {
		if ctx.Err() != nil {
			s.met.cancels.Inc()
		}
		return core.Stats{}, err
	}
	e.record(st)
	s.met.latency.Observe(time.Since(start))
	return st, nil
}

// admit takes an admission slot, queueing context-aware when the service is
// at MaxInFlight and shedding load once MaxQueue requests already wait.
func (s *Service) admit(ctx context.Context) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	select {
	case s.sem <- struct{}{}: // free slot: no queueing
		s.met.inFlight.Inc()
		return nil
	default:
	}
	if max := s.cfg.MaxQueue; max > 0 && s.met.queueDepth.Value() >= int64(max) {
		s.met.rejections.Inc()
		return ErrOverloaded
	}
	s.met.queueDepth.Inc()
	defer s.met.queueDepth.Dec()
	// Only the contended path carries a queue-wait span: the histogram then
	// answers "how long do queued requests wait", not "how often is the
	// queue empty".
	sp := obs.StartSpan(s.met.queueWait)
	select {
	case s.sem <- struct{}{}:
		sp.End()
		s.met.inFlight.Inc()
		return nil
	case <-ctx.Done():
		sp.End()
		s.met.cancels.Inc()
		return ctx.Err()
	}
}

// exit returns the admission slot.
func (s *Service) exit() {
	s.met.inFlight.Dec()
	<-s.sem
}

// Close shuts the service down: subsequent requests fail with ErrClosed and
// every cached plan's reference is released. Requests already executing
// finish normally — their Retain-ed references keep the plans alive until
// the last one returns. Close also waits for the plans evicted earlier to
// finish closing, so no plan's worker pool or store pin outlives it once
// every request has returned.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, e := range s.plans.Clear() {
		e.close()
	}
	s.closers.Wait()
}
