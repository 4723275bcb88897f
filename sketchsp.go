// Package sketchsp is a Go implementation of "Fast multiplication of random
// dense matrices with sparse matrices" (Liang, Murray, Buluç, Demmel — IPPS
// 2024): sketching Â = S·A where A is a tall sparse matrix and S is a random
// dense matrix whose entries are regenerated on the fly inside blocked
// kernels instead of being stored, trading memory traffic for cheap,
// reproducible computation.
//
// The package exposes three layers:
//
//   - Sketching: Sketch / NewSketcher compute Â = S·A with Algorithm 3
//     (kji over CSC) or Algorithm 4 (jki over blocked CSR), sequentially or
//     in parallel, for uniform (-1,1), ±1 (Rademacher), Gaussian or
//     integer-scaled entries of S. Repeated-sketch consumers build a Plan
//     once with NewPlan and call Plan.Execute per sketch: format
//     conversion, algorithm choice and all workspaces are paid at plan
//     time, leaving executes allocation-free on a persistent worker pool.
//
//   - Least squares: SolveLeastSquares runs the paper's sketch-and-
//     precondition solver (SAP-QR / SAP-SVD) and its baselines (LSQR-D and
//     a direct sparse QR).
//
//   - Matrices: COO/CSC/CSR construction, MatrixMarket I/O, and the
//     synthetic generators used by the reproduction benchmarks.
//
// Quick start:
//
//	a := sketchsp.RandomUniform(100000, 1000, 1e-3, 42) // sparse A
//	ahat, stats, err := sketchsp.Sketch(a, 3*a.N, sketchsp.SketchOptions{
//		Dist: sketchsp.Rademacher,
//	})
package sketchsp

import (
	"context"
	"fmt"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/jobs"
	"sketchsp/internal/obs"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/shard"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// Typed errors. Construction surfaces (Sketch, NewPlan, NewSketcher, the
// Service request paths) report argument problems by wrapping these
// sentinels — match with errors.Is. None of them panic on bad arguments.
var (
	// ErrNilMatrix: the sparse input matrix was nil.
	ErrNilMatrix = core.ErrNilMatrix
	// ErrInvalidSketchSize: the sketch size d was not positive.
	ErrInvalidSketchSize = core.ErrInvalidSketchSize
	// ErrInvalidMatrix: the CSC input was structurally broken (e.g. the
	// zero value &CSC{}). Degenerate but valid shapes — 0×n, m×0, empty
	// columns — are not errors.
	ErrInvalidMatrix = core.ErrInvalidMatrix
	// ErrBadOptions: an Options field was out of domain.
	ErrBadOptions = core.ErrBadOptions
	// ErrPlanClosed: Execute was called on a fully released Plan.
	ErrPlanClosed = core.ErrPlanClosed
	// ErrServiceClosed: a request was issued to a closed Service.
	ErrServiceClosed = service.ErrClosed
	// ErrServiceOverloaded: the Service admission queue was full
	// (backpressure — retry later or shed the request).
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrMatrixNotFound: a by-reference request named a fingerprint the
	// server's content-addressed store does not hold (never uploaded, or
	// evicted under its byte budget). The cure is PutMatrix-then-retry —
	// Client.SketchCached does exactly that automatically.
	ErrMatrixNotFound = store.ErrNotFound
)

// Matrix types re-exported from the internal substrate. The aliases make
// the internal implementations part of the public API surface.
type (
	// Matrix is a column-major dense matrix (the type of sketches Â).
	Matrix = dense.Matrix
	// COO is a coordinate-format construction buffer for sparse matrices.
	COO = sparse.COO
	// CSC is a compressed-sparse-column matrix, the input format of the
	// sketching kernels.
	CSC = sparse.CSC
	// CSR is a compressed-sparse-row matrix.
	CSR = sparse.CSR
	// BlockedCSR is Algorithm 4's structure: vertical column slabs, each
	// storing only its non-empty rows (doubly compressed sparse row), so
	// its memory is O(nnz) with no term in the row count m.
	BlockedCSR = sparse.BlockedCSR
)

// Sketching configuration re-exports.
type (
	// SketchOptions configures a Sketcher (algorithm, distribution,
	// block sizes, seed, parallelism).
	SketchOptions = core.Options
	// SketchStats reports what a sketch invocation did.
	SketchStats = core.Stats
	// Sketcher computes Â = S·A for a fixed sketch size and options.
	Sketcher = core.Sketcher
	// Plan is a reusable sketch plan: built once by NewPlan, executed many
	// times allocation-free. Close it to release its worker pool.
	Plan = core.Plan
	// PlanStats reports the planner's decisions and one-time costs
	// (resolved algorithm, blocking, conversion time).
	PlanStats = core.PlanStats
	// Algorithm selects the compute kernel (Alg3 or Alg4).
	Algorithm = core.Algorithm
	// Scheduler selects how a Plan maps block tasks onto workers.
	Scheduler = core.Scheduler
	// Distribution selects the distribution of S's entries.
	Distribution = rng.Distribution
	// SourceKind selects the RNG engine.
	SourceKind = rng.SourceKind
)

// Compute-kernel choices (see the package comment and DESIGN.md).
const (
	// Alg3 is the kji kernel over CSC: pattern-oblivious, strided access,
	// d·nnz(A) samples. The default.
	Alg3 = core.Alg3
	// Alg4 is the jki kernel over blocked CSR: reuses generated columns
	// of S across sparse rows, fewer samples, pattern-sensitive access.
	Alg4 = core.Alg4
	// AlgAuto inspects the matrix and picks the cheaper kernel under the
	// §III-B cost model (set SketchOptions.RNGCost to this host's measured
	// h for a better-informed choice).
	AlgAuto = core.AlgAuto
)

// Task schedulers (SketchOptions.Sched). The choice never changes the
// sketch bits — only how columns group into slabs and which worker computes
// which block.
const (
	// SchedWeighted is the default: nnz-weighted slab repartition, LPT
	// prepacked per-worker queues, work stealing from the heaviest victim.
	SchedWeighted = core.SchedWeighted
	// SchedNoSteal keeps the weighted partition but disables stealing.
	SchedNoSteal = core.SchedNoSteal
	// SchedUniform is the uniform-grid shared-channel dispatch (the A/B
	// baseline for the skew benchmarks).
	SchedUniform = core.SchedUniform
)

// Distributions for the entries of S.
const (
	// Uniform11 draws iid uniform (-1, 1) entries (default).
	Uniform11 = rng.Uniform11
	// Rademacher draws iid ±1 entries (cheapest).
	Rademacher = rng.Rademacher
	// Gaussian draws iid N(0,1) entries (expensive; mostly for
	// comparison, per the paper's Figure 4).
	Gaussian = rng.Gaussian
	// ScaledInt uses the integer scaling trick: S holds raw int32 values
	// and A is pre-scaled by 2⁻³¹.
	ScaledInt = rng.ScaledInt
	// SJLT draws s-sparse Johnson–Lindenstrauss columns: exactly s
	// nonzeros per column, valued ±1/√s, regenerated per global column
	// index. Options.Sparsity selects s (0 = ⌈√d⌉); per-column work drops
	// from O(d) to O(s).
	SJLT = rng.SJLT
	// CountSketch is the s=1 member of the sparse family: one ±1 nonzero
	// per column.
	CountSketch = rng.CountSketch
)

// RNG engines.
const (
	// SourceBatchXoshiro is the 4-lane xoshiro256++ (default, fastest;
	// reproducible for a fixed blocking).
	SourceBatchXoshiro = rng.SourceBatchXoshiro
	// SourceScalarXoshiro is single-lane xoshiro256++.
	SourceScalarXoshiro = rng.SourceScalarXoshiro
	// SourcePhilox is the Philox4x32-10 counter-based RNG: slower, but
	// the sketch is identical for every blocking and thread count.
	SourcePhilox = rng.SourcePhilox
)

// NewSketcher returns a Sketcher producing d-row sketches Â = S·A.
func NewSketcher(d int, opts SketchOptions) (*Sketcher, error) {
	return core.NewSketcher(d, opts)
}

// NewPlan inspects (a, d, opts) once — resolving AlgAuto, fixing block
// sizes, converting formats, allocating per-worker state — and returns a
// reusable Plan whose Execute calls are steady-state allocation-free.
// Prefer it over Sketch whenever the same matrix is sketched more than once
// (solvers, power iterations, serving); call Plan.Close when done.
func NewPlan(a *CSC, d int, opts SketchOptions) (*Plan, error) {
	return core.NewPlan(a, d, opts)
}

// Sketch computes Â = S·A in one shot, planning and executing internally;
// d is the number of rows of S (typically γ·n for a small constant γ).
// Its Stats fold the plan's one-time costs (conversion) into this call.
func Sketch(a *CSC, d int, opts SketchOptions) (*Matrix, SketchStats, error) {
	p, err := core.NewPlan(a, d, opts)
	if err != nil {
		return nil, SketchStats{}, err
	}
	defer p.Close()
	start := time.Now()
	ahat := dense.NewMatrix(d, a.N)
	st, err := p.Execute(ahat)
	if err != nil {
		return nil, SketchStats{}, err
	}
	st.ConvertTime = p.Stats().ConvertTime
	st.Total = time.Since(start) + p.Stats().PlanTime
	return ahat, st, nil
}

// Sketch-serving re-exports. The Service is the layer to use when sketch
// requests arrive concurrently and matrices repeat: it caches Plans keyed
// by a structural fingerprint of the matrix plus the sketch options,
// builds misses under single-flight, evicts LRU with reference counting
// (never mid-Execute), and applies admission control with context-aware
// queueing. Cache hits execute allocation-free.
type (
	// Service is the concurrent sketch server (see internal/service).
	Service = service.Service
	// ServiceConfig sizes a Service (cache capacity, in-flight bound,
	// queue bound, per-request deadline).
	ServiceConfig = service.Config
	// ServiceStats is a point-in-time snapshot of service counters,
	// latency quantiles and per-cache-entry execute aggregates.
	ServiceStats = service.Stats
	// ServiceEntryStats is the per-cache-entry slice of a ServiceStats.
	ServiceEntryStats = service.EntryStats
	// SketchRequest is one request of a Service.SketchBatch call.
	SketchRequest = service.Request
	// SketchResponse is the index-aligned outcome of a batched request.
	SketchResponse = service.Response
)

// NewService returns a ready concurrent sketch server. Close it when done;
// in-flight requests finish, cached plans are released.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Network serving re-exports. cmd/sketchd serves a Service over HTTP with
// the internal/wire binary codec; Client is the matching Go client. The
// request carries the seed and distribution and the server regenerates S,
// so traffic per sketch is O(nnz(A) + d·n), never O(d·m) — the paper's
// memory-bus argument applied to the network.
type (
	// Client issues sketch requests to a sketchd server with connection
	// reuse, per-attempt timeouts and capped jittered backoff. It retries
	// only failures a retry can cure (transport errors, overload shed) and
	// surfaces errors through the same sentinels as the in-process API:
	// errors.Is(err, ErrServiceOverloaded) holds across the network.
	Client = client.Client
	// ClientConfig tunes the client's retry and timeout behaviour; the
	// zero value selects sensible defaults.
	ClientConfig = client.Config
)

// NewClient returns a client for the sketchd server at baseURL, e.g.
// "http://127.0.0.1:7464".
func NewClient(baseURL string, cfg ClientConfig) *Client { return client.New(baseURL, cfg) }

// Served-solve protocol re-exports. Build a SolveRequest (inline CSC or a
// stored matrix's fingerprint with ByRef), send it with Client.Solve —
// which transparently rides the async job surface when the server queues
// the request — or drive the job lifecycle yourself with Client.SolveAsync,
// Client.JobStatus, Client.JobWait and Client.CancelJob.
type (
	// SolveRequest is the POST /v1/solve request body: method, solver
	// knobs, sketch options, the right-hand side, and the matrix (inline
	// or by fingerprint reference).
	SolveRequest = wire.SolveRequest
	// SolveResponse carries the solution (or RandSVD factors) plus the
	// server-side timing/iteration breakdown.
	SolveResponse = wire.SolveResponse
	// SolveJobStatus reports one async solve job: its lifecycle state,
	// live iteration progress, and — once terminal — the embedded result.
	SolveJobStatus = wire.JobStatus
	// SolveMethod selects the algorithm on the wire (it maps onto Method;
	// Direct has no wire form).
	SolveMethod = wire.SolveMethod
	// JobState is an async solve job's lifecycle state.
	JobState = jobs.State
)

// Wire solve methods.
const (
	WireSAPQR   = wire.SolveSAPQR
	WireSAPSVD  = wire.SolveSAPSVD
	WireMinNorm = wire.SolveMinNorm
	WireLSQRD   = wire.SolveLSQRD
	WireRandSVD = wire.SolveRandSVD
)

// Async solve job lifecycle states.
const (
	JobPending   = jobs.StatePending
	JobRunning   = jobs.StateRunning
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// ErrJobNotFound: a job ID named an unknown, expired or evicted job.
var ErrJobNotFound = jobs.ErrNotFound

// Content-addressed serving re-exports. Matrices repeat in serving
// workloads, so the upload can be split from the request: PutMatrix stores
// A under its structural fingerprint once, and every later sketch names
// the 32-byte fingerprint instead of shipping O(nnz) bytes
// (Client.SketchCached folds the two together, uploading only when the
// server does not hold the content). PatchMatrix applies a sparse ΔA,
// making A+ΔA addressable under its own fingerprint while the server
// advances cached sketches incrementally as Â + S·ΔA — bit-identical to a
// from-scratch sketch in the integer-exact value regime. Both *Service
// and *ShardCoordinator implement RefBackend; Client exposes the matching
// calls over the wire.
type (
	// Fingerprint is the content address of a sparse matrix: shape, nnz
	// and a structural hash. CSC.Fingerprint computes it.
	Fingerprint = sparse.Fingerprint
	// MatrixInfo is a store receipt: the fingerprint, resident bytes, and
	// whether the operation inserted new content.
	MatrixInfo = store.Info
	// RefBackend is the content-addressed extension of Backend (PutMatrix,
	// SketchRef, PatchMatrix).
	RefBackend = service.RefBackend
)

// AddSparse returns A+ΔA as a fresh CSC (inputs untouched), merging
// coincident entries and dropping exact-zero sums so the result is in the
// canonical form content addressing requires.
func AddSparse(a, delta *CSC) (*CSC, error) { return sparse.Add(a, delta) }

// Sharded serving re-exports. A ShardCoordinator splits each request into
// nnz-balanced column shards, routes every shard to a worker by consistent
// hashing on the shard's structural fingerprint (repeat matrices keep
// hitting the same workers' plan caches), executes the shards on the
// workers in parallel, and reassembles the partial sketches. Because S[i,j]
// depends only on (seed, blocking, i, global column j), the merged sketch
// is bit-identical to a single-process run — sharding is invisible to
// callers. cmd/sketchd exposes the same layer as a daemon via -peers.
type (
	// Backend is the shard-agnostic serving interface: both a *Service
	// (local execution) and a *ShardCoordinator (fan-out over workers)
	// implement it, so servers and callers need not know which they hold.
	Backend = service.Backend
	// ShardCoordinator fans sketch requests out over sketchd workers and
	// merges the exact partial sketches.
	ShardCoordinator = shard.Coordinator
	// ShardConfig configures a ShardCoordinator (peers, shards per
	// request, failover cooldown, client tuning).
	ShardConfig = shard.Config
	// ShardError reports which column range on which peer failed, and
	// wraps the underlying cause for errors.Is/As.
	ShardError = shard.ShardError
	// PeerAdmin is the dynamic-membership surface: a Backend that also
	// implements it (the ShardCoordinator does) gets POST/DELETE
	// /v1/peers mounted by the server, and AddPeer/RemovePeer/Peers can
	// be called directly from Go. Membership changes re-canonicalise the
	// routing ring without dropping in-flight requests.
	PeerAdmin = service.PeerAdmin
)

// ErrNoShardPeers: a ShardCoordinator was configured with no usable peers.
var ErrNoShardPeers = shard.ErrNoPeers

// ErrUnknownPeer: a RemovePeer named a peer that is not in the membership.
var ErrUnknownPeer = service.ErrUnknownPeer

// NewShardCoordinator returns a coordinator fanning out over cfg.Peers.
// Close it when done; it owns one Client per peer.
func NewShardCoordinator(cfg ShardConfig) (*ShardCoordinator, error) { return shard.New(cfg) }

// MetricsRegistry is the dependency-free metrics registry behind every
// layer's counters and histograms (see internal/obs). A Service creates a
// private one unless ServiceConfig.Metrics hands it a shared registry;
// MetricsRegistry.Handler serves the Prometheus text exposition — the same
// endpoint sketchd mounts at /metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry, for callers that want one
// registry spanning several layers (a Service plus a client, say) or their
// own application metrics beside the sketchsp_* families.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Least-squares solver re-exports.
type (
	// SolveOptions configures SolveLeastSquares.
	SolveOptions = solver.Options
	// SolveInfo reports timing, iterations and workspace of a solve.
	SolveInfo = solver.Info
	// Method selects the least-squares algorithm.
	Method = solver.Method
)

// Least-squares methods.
const (
	// SAPQR is sketch-and-precondition with a QR-based preconditioner.
	SAPQR = solver.MethodSAPQR
	// SAPSVD is sketch-and-precondition with an SVD-based preconditioner
	// (for problems with singular values near zero).
	SAPSVD = solver.MethodSAPSVD
	// LSQRD is LSQR with a diagonal column-equilibration preconditioner.
	LSQRD = solver.MethodLSQRD
	// Direct is the sparse-QR direct solver.
	Direct = solver.MethodDirect
	// MinNorm is the minimum-norm solver for underdetermined systems
	// (SolveMinNorm's method, for the served-solve request surface).
	MinNorm = solver.MethodMinNorm
	// RandSVDMethod names the randomized SVD on the served-solve request
	// surface; SolveLeastSquares rejects it (RandSVD returns factors, not a
	// least-squares solution — call RandSVD or serve it via Client.Solve).
	RandSVDMethod = solver.MethodRandSVD
)

// SolveLeastSquares solves min ‖A·x − b‖₂ with the chosen method.
func SolveLeastSquares(method Method, a *CSC, b []float64, opts SolveOptions) ([]float64, SolveInfo, error) {
	return solver.Solve(method, a, b, opts)
}

// SolveMinNorm solves the underdetermined problem min ‖x‖₂ subject to
// A·x = b for a wide, full-row-rank A, by sketching Aᵀ and running LSQR on
// the left-preconditioned consistent system (the paper's footnote-2
// extension).
func SolveMinNorm(a *CSC, b []float64, opts SolveOptions) ([]float64, SolveInfo, error) {
	return solver.SolveMinNorm(a, b, opts)
}

// SolveLeastSquaresContext is SolveLeastSquares with cancellation: ctx is
// observed between LSQR iterations (and by the sketching engine), and
// SolveOptions.Progress receives per-iteration residual estimates.
func SolveLeastSquaresContext(ctx context.Context, method Method, a *CSC, b []float64, opts SolveOptions) ([]float64, SolveInfo, error) {
	return solver.SolveContext(ctx, method, a, b, opts)
}

// SolveMinNormContext is SolveMinNorm with cancellation.
func SolveMinNormContext(ctx context.Context, a *CSC, b []float64, opts SolveOptions) ([]float64, SolveInfo, error) {
	return solver.SolveMinNormContext(ctx, a, b, opts)
}

// RSVDResult is a rank-k approximation A ≈ U·diag(Sigma)·Vᵀ from RandSVD.
type RSVDResult = solver.RSVDResult

// RandSVD computes a rank-k randomized SVD of a sparse matrix with the
// on-the-fly sketching engine as the range finder (the n×(k+p) random test
// matrix is never materialised). powerIters adds subspace iterations for
// slowly decaying spectra; oversample ≤ 0 selects 8.
func RandSVD(a *CSC, rank, oversample, powerIters int, opts SketchOptions) (*RSVDResult, error) {
	return solver.RandSVD(a, rank, oversample, powerIters, opts)
}

// LeverageScores estimates the row leverage scores of a tall sparse matrix
// by sketch-whitening plus a Johnson–Lindenstrauss compression — the
// pylspack-style statistic built on the same primitive. kJL ≤ 0 selects 64.
func LeverageScores(a *CSC, kJL int, opts SolveOptions) ([]float64, error) {
	return solver.LeverageScores(a, kJL, opts)
}

// LeastSquaresError is the paper's backward-error metric
// ‖Aᵀ(Ax − b)‖₂ / (‖A‖_F·‖Ax − b‖₂) for a candidate solution.
func LeastSquaresError(a *CSC, x, b []float64) float64 {
	return solver.ErrorMetric(a, x, b)
}

// Sparse-matrix constructors and I/O re-exports.

// NewCOO creates an empty m×n coordinate-format buffer.
func NewCOO(m, n, nnzHint int) *COO { return sparse.NewCOO(m, n, nnzHint) }

// NewCSC builds a CSC matrix from raw compressed arrays, validating the
// structural invariants.
func NewCSC(m, n int, colPtr, rowIdx []int, val []float64) (*CSC, error) {
	return sparse.NewCSC(m, n, colPtr, rowIdx, val)
}

// NewDense allocates a zeroed r×c column-major dense matrix.
func NewDense(r, c int) *Matrix { return dense.NewMatrix(r, c) }

// RandomUniform generates a sparse matrix with iid-uniform pattern at the
// given density, values uniform in (-1, 1).
func RandomUniform(m, n int, density float64, seed int64) *CSC {
	return sparse.RandomUniform(m, n, density, seed)
}

// PowerLaw generates a sparse matrix whose column degrees follow a Zipf
// power law with exponent alpha (column j receives ∝ (j+1)^−alpha of the
// nnz budget), values uniform in (-1, 1) — the skewed workload for the
// scheduler benchmarks. alpha = 0 degenerates to uniform column degrees.
func PowerLaw(m, n, nnz int, alpha float64, seed int64) *CSC {
	return sparse.PowerLaw(m, n, nnz, alpha, seed)
}

// ReadMatrixMarketFile parses a MatrixMarket coordinate file.
func ReadMatrixMarketFile(path string) (*CSC, error) {
	return sparse.ReadMatrixMarketFile(path)
}

// WriteMatrixMarketFile writes a CSC matrix in coordinate format.
func WriteMatrixMarketFile(path string, a *CSC) error {
	return sparse.WriteMatrixMarketFile(path, a)
}

// EffectiveDistortion estimates the sketching distortion of S for range(A):
// it sketches with the given options, whitens the sketch against a QR
// factorization of A, and returns (σmax−σmin)/(σmax+σmin) of the whitened
// operator — the smallest D with σ(S·Q) ⊆ c·[1−D, 1+D] under the optimal
// rescaling c.
// For a γ·n sketch of Gaussian type this converges to 1/√γ (§V); it is the
// quality measure used to check that cheap distributions still give usable
// sketches.
func EffectiveDistortion(a *CSC, d int, opts SketchOptions) (float64, error) {
	if d <= a.N {
		return 0, fmt.Errorf("sketchsp: distortion needs d > n (got d=%d, n=%d)", d, a.N)
	}
	return solver.Distortion(a, d, opts)
}
