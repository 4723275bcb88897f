package service

import (
	"cmp"
	"context"
	"math"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
)

// This file is the solver serving surface behind POST /v1/solve
// (DESIGN.md §13). A solve reuses both service caches:
//
//   - The SAP sketch Â = S·A routes through the fingerprint-keyed plan
//     cache (and, for by-reference requests, the Â cache), so a solve after
//     a sketch of the same matrix pays no second plan build.
//   - The preconditioner factors (R for SAP-QR/min-norm, V/Σ for SAP-SVD)
//     land in their own byte-bounded LRU keyed by (fingerprint, method, d,
//     sketch options). A repeat solve against the same matrix skips the
//     sketch AND the dense factorization and goes straight to LSQR.
//
// Both reuse paths are bit-transparent: the plan-cache surface is
// bit-identical to a fresh plan, and BuildPrecond/SolvePrecond are
// deterministic, so a cache-hit solve returns exactly the bits of a direct
// solver.Solve — the served-vs-direct differential suite pins this.

// DefaultPrecondCacheBytes is the preconditioner-cache budget when
// Config.PrecondCacheBytes is 0: 32 MiB of R/V/Σ factors.
const DefaultPrecondCacheBytes = 32 << 20

// SolveRequest is one solve through the service. Exactly one matrix
// identity is set: A inline, or Fp (with ByRef) naming a stored matrix.
type SolveRequest struct {
	Method solver.Method
	A      *sparse.CSC
	ByRef  bool
	Fp     sparse.Fingerprint
	// B is the right-hand side (ignored by MethodRandSVD).
	B []float64
	// Opts carries the solver knobs; Opts.Progress observes LSQR
	// iterations (the async job layer wires it to job state).
	Opts solver.Options
	// Rank, Oversample and PowerIters configure MethodRandSVD.
	Rank       int
	Oversample int
	PowerIters int
}

// SolveResult is a solve's outcome: a solution vector (least-squares
// methods) or low-rank factors (MethodRandSVD), plus cost and quality.
type SolveResult struct {
	X       []float64
	Factors *solver.RSVDResult
	Info    solver.Info
	// Residual is the achieved backward error (solver.ErrorMetric) of X;
	// 0 for factor results.
	Residual float64
	// PrecondCached reports whether the preconditioner came from the
	// cache (Info still carries the original build's timings).
	PrecondCached bool
}

// Solve runs one solve through the admission gate and the solver caches.
// By-reference requests resolve the fingerprint at execution time — a
// matrix evicted between request admission and execution surfaces
// store.ErrNotFound, exactly like a sketch-by-reference miss. The service
// does not retain req.A or req.B beyond the call.
//
// Unlike SketchInto, Solve does not apply Config.RequestTimeout: solves
// are admitted by the same gate but run to completion under the caller's
// context alone (async jobs are cancelled through their own DELETE path,
// not a wall-clock guess).
func (s *Service) Solve(ctx context.Context, req *SolveRequest) (*SolveResult, error) {
	start := time.Now()
	if req == nil || (!req.ByRef && req.A == nil) {
		return nil, core.ErrNilMatrix
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.exit()
	s.solveMet.requests.Inc()

	a := req.A
	fp := req.Fp
	if req.ByRef {
		h, err := s.store.Get(fp)
		if err != nil {
			s.solveMet.errors.Inc()
			return nil, err
		}
		defer h.Release()
		a = h.Matrix()
	} else {
		fp = a.Fingerprint()
	}

	res, err := s.dispatch(ctx, a, fp, req)
	if err != nil {
		s.solveMet.errors.Inc()
		if ctx.Err() != nil {
			s.met.cancels.Inc()
		}
		return nil, err
	}
	res.Info.Total = time.Since(start)
	s.solveMet.latency.Observe(res.Info.Total)
	s.solveMet.iterations.Add(int64(res.Info.Iters))
	if res.X != nil {
		s.solveMet.lastResidual.Set(res.Residual)
		s.solveMet.lastContraction.Set(contractionEstimate(res.Residual, res.Info.Iters))
	}
	return res, nil
}

// dispatch routes the admitted request by method.
func (s *Service) dispatch(ctx context.Context, a *sparse.CSC, fp sparse.Fingerprint, req *SolveRequest) (*SolveResult, error) {
	switch req.Method {
	case solver.MethodSAPQR, solver.MethodSAPSVD, solver.MethodMinNorm:
		p, cached, err := s.precondFor(ctx, a, fp, req)
		if err != nil {
			return nil, err
		}
		x, info, err := solver.SolvePrecond(ctx, a, req.B, p, req.Opts)
		if err != nil {
			return nil, err
		}
		return &SolveResult{
			X: x, Info: info, PrecondCached: cached,
			Residual: solver.ErrorMetric(a, x, req.B),
		}, nil
	case solver.MethodRandSVD:
		r, err := solver.RandSVDContext(ctx, a, req.Rank, req.Oversample, req.PowerIters, req.Opts.Sketch)
		if err != nil {
			return nil, err
		}
		return &SolveResult{
			Factors: r,
			Info: solver.Info{
				Method: solver.MethodRandSVD, Converged: true,
				SketchTime: r.SketchTime, Total: r.Total,
				MemoryBytes: r.U.MemoryBytes() + r.V.MemoryBytes() + int64(len(r.Sigma))*8,
			},
		}, nil
	default:
		// LSQR-D and the direct baseline: no cacheable stage, straight
		// through the solver (which rejects anything unknown).
		x, info, err := solver.SolveContext(ctx, req.Method, a, req.B, req.Opts)
		if err != nil {
			return nil, err
		}
		return &SolveResult{
			X: x, Info: info,
			Residual: solver.ErrorMetric(a, x, req.B),
		}, nil
	}
}

// precondFor resolves the preconditioner for a SAP-family solve: from the
// cache when resident, otherwise built with the sketch routed through the
// plan cache (SAP-QR/SVD; the min-norm build sketches the transpose, whose
// fingerprint the request does not carry, so it uses the direct path) and
// inserted for the next solve.
func (s *Service) precondFor(ctx context.Context, a *sparse.CSC, fp sparse.Fingerprint, req *SolveRequest) (*solver.Precond, bool, error) {
	var d int
	if req.Method == solver.MethodMinNorm {
		d = solver.MinNormSketchDim(a.M, req.Opts)
	} else {
		d = solver.SAPSketchDim(a.N, req.Opts)
	}
	k := precondKey{fp: fp, method: req.Method, d: d, opts: req.Opts.Sketch}
	if p, ok := s.preconds.get(k); ok {
		s.solveMet.precondHits.Inc()
		return p, true, nil
	}
	s.solveMet.precondMisses.Inc()
	var sketch solver.SketchFunc
	if req.Method != solver.MethodMinNorm {
		sketch = s.planSketch(fp, req.ByRef)
	}
	p, err := solver.BuildPrecondSketch(ctx, req.Method, a, req.Opts, sketch)
	if err != nil {
		return nil, false, err
	}
	s.preconds.put(k, p)
	return p, false, nil
}

// planSketch returns a SketchFunc that computes Â through the service's
// plan cache under the solve matrix's fingerprint, and — for by-reference
// matrices — consults and populates the Â cache, so sketches and solves
// of the same stored matrix share work. The Â-cache fast path may return
// the shared cached matrix: it is immutable by contract and the
// preconditioner factorizations clone their input.
func (s *Service) planSketch(fp sparse.Fingerprint, byRef bool) solver.SketchFunc {
	return func(ctx context.Context, a *sparse.CSC, d int, o core.Options) (*dense.Matrix, time.Duration, error) {
		t0 := time.Now()
		k := planKey{fp: fp, d: d, opts: o}
		if byRef {
			if cached, ok := s.sketches.get(k); ok {
				return cached, time.Since(t0), nil
			}
		}
		src := planSrc{a: a}
		if byRef {
			src = planSrc{store: s.store, fp: fp}
		}
		p, e, err := s.plan(ctx, k, src)
		if err != nil {
			return nil, 0, err
		}
		defer p.Release()
		ahat := dense.NewMatrix(d, a.N)
		st, err := p.ExecuteContext(ctx, ahat)
		if err != nil {
			return nil, 0, err
		}
		e.record(st)
		if byRef {
			s.sketches.put(k, ahat.Clone())
		}
		return ahat, time.Since(t0), nil
	}
}

// contractionEstimate is the cheap per-iteration contraction-rate proxy
// exported as sketchsp_solve_contraction_estimate: residual^(1/iters), the
// geometric-mean factor by which each LSQR iteration shrank the backward
// error. It is a preconditioner-quality signal (smaller = better-
// conditioned A·R⁻¹), NOT the sketch distortion of solver.Distortion —
// that needs a full sparse QR of A and has no place on a serving path.
func contractionEstimate(resid float64, iters int) float64 {
	if iters <= 0 || resid <= 0 {
		return 0
	}
	return math.Exp(math.Log(resid) / float64(iters))
}

// precondKey identifies a cached preconditioner. The factors depend on
// exactly (matrix content, method, sketch size, sketch options) — Atol,
// MaxIters and SVDDrop act in the iterative stage, which is never cached.
type precondKey struct {
	fp     sparse.Fingerprint
	method solver.Method
	d      int
	opts   core.Options
}

// newPrecondCache returns the factor cache: maxBytes of preconditioner
// factors as FactorBytes counts them, not the transient sketch (0 =
// default, negative = unbounded).
func newPrecondCache(maxBytes int64, r *obs.Registry) *byteLRU[precondKey, *solver.Precond] {
	return newByteLRU[precondKey](cmp.Or(maxBytes, DefaultPrecondCacheBytes), (*solver.Precond).FactorBytes, r, lruMetricNames{
		evictions:     "sketchsp_solve_precond_evictions_total",
		evictionsHelp: "Preconditioners reclaimed by the factor-cache byte budget.",
		bytes:         "sketchsp_solve_precond_cache_bytes",
		bytesHelp:     "Summed bytes of cached preconditioner factors.",
		entries:       "sketchsp_solve_precond_cache_entries",
		entriesHelp:   "Preconditioners currently resident.",
	})
}

// solveMetrics is the sketchsp_solve_* family — kept apart from svcMetrics
// so the sketchsp_service_* cardinality stays exactly the sketch-serving
// story (TestStatsMetricsReconcile pins it).
type solveMetrics struct {
	requests        *obs.Counter
	errors          *obs.Counter
	precondHits     *obs.Counter
	precondMisses   *obs.Counter
	iterations      *obs.Counter
	latency         *obs.Histogram
	lastResidual    *obs.FloatGauge
	lastContraction *obs.FloatGauge
}

func newSolveMetrics(r *obs.Registry) *solveMetrics {
	return &solveMetrics{
		requests: r.Counter("sketchsp_solve_requests_total",
			"Solve requests admitted (all methods)."),
		errors: r.Counter("sketchsp_solve_errors_total",
			"Solve requests that failed (build, iterate, cancel, or unknown fingerprint)."),
		precondHits: r.Counter("sketchsp_solve_precond_hits_total",
			"SAP solves served from the preconditioner cache (no sketch, no factorization)."),
		precondMisses: r.Counter("sketchsp_solve_precond_misses_total",
			"SAP solves that built (and cached) a preconditioner."),
		iterations: r.Counter("sketchsp_solve_iterations_total",
			"Summed LSQR iterations across completed solves (rate = iterations/s)."),
		latency: r.Histogram("sketchsp_solve_seconds",
			"Completed solve latency, admission queueing included."),
		lastResidual: r.FloatGauge("sketchsp_solve_last_residual",
			"Achieved backward error of the most recent solution."),
		lastContraction: r.FloatGauge("sketchsp_solve_contraction_estimate",
			"Per-iteration contraction proxy residual^(1/iters) of the most recent solve."),
	}
}
