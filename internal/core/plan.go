package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/analysis"
	"sketchsp/internal/dense"
	"sketchsp/internal/kernels"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// PlanStats reports what planning decided and what it cost. All one-time
// inspector work — AlgAuto resolution, block-size choice, the nnz-aware
// column partition, task-list construction, the CSC→BlockedCSR conversion,
// the ScaledInt pre-scale — is charged here, never to Plan.Execute.
type PlanStats struct {
	// Algorithm is the concrete kernel the plan dispatches to (AlgAuto is
	// resolved at plan time via the §III-B cost model).
	Algorithm Algorithm
	// BlockD and BlockN are the resolved block sizes (b_d, b_n). For the
	// weighted schedulers BlockN is the nominal grid width the partition
	// started from; actual slab widths vary (see Slabs/SlabsSplit).
	BlockD, BlockN int
	// Workers is the resolved worker count (clamped to the task count).
	Workers int
	// Sparsity is the resolved per-column nonzero count s for the sparse
	// sketch family (SJLT/CountSketch): Options.Sparsity after the default
	// ⌈√d⌉ rule and the [1, d] clamp, 1 for CountSketch. 0 for dense
	// distributions.
	Sparsity int
	// Tasks is the number of outer-block cells after partitioning.
	Tasks int
	// Scheduler is the task scheduler the plan executes with.
	Scheduler Scheduler
	// Slabs is the number of column slabs in the final partition.
	Slabs int
	// SlabsSplit counts uniform grid slabs the nnz-aware partitioner
	// subdivided; SlabsFused counts boundary removals from fusing light
	// neighbours. Both 0 for SchedUniform.
	SlabsSplit, SlabsFused int
	// MinTaskWeight/MaxTaskWeight/MeanTaskWeight summarise the nnz·d1
	// task-weight histogram the scheduler balances on.
	MinTaskWeight, MaxTaskWeight int64
	MeanTaskWeight               float64
	// PredictedImbalance is the load-imbalance ratio of the LPT prepacking
	// (analysis.PredictImbalance): the planner's a-priori estimate before
	// stealing. 1.0 = perfectly balanced queues.
	PredictedImbalance float64
	// TunedBlockN reports that BlockN came from the §III-B sample-count
	// tuner (Options.TuneBlockN) rather than the static default.
	TunedBlockN bool
	// ConvertTime is the CSC→BlockedCSR conversion time (Alg4 only),
	// charged exactly once per plan. Repeated Execute calls never re-pay
	// it; Execute's Stats report ConvertTime == 0.
	ConvertTime time.Duration
	// PlanTime is the total planning wall clock, including ConvertTime.
	PlanTime time.Duration
}

// workspace is the per-worker mutable state of a plan: a private column
// generator (sampler plus the scratch it fills with entries of S), a
// reusable sub-view header for Â, and the per-round accumulators.
// Pre-allocating these at plan time is what makes Execute allocation-free.
// Its worker writes it on every task, so it is padded to whole cache lines
// (DESIGN.md §5), as are the generator, sampler and scratch it points to.
type workspace struct {
	gen        *kernels.Gen
	sub        dense.Matrix
	samples    int64
	sampleTime time.Duration
	busy       time.Duration
	steals     int64
	_          [40]byte // pads the struct to 128 bytes, 2 cache lines
}

// planPool is a plan's persistent worker pool: goroutines started lazily on
// the first parallel Execute and reused by every subsequent call until
// Plan.Close. SchedUniform workers drain the shared work channel;
// weighted-scheduler workers wake once per round on their private start
// channel and drain/steal from the plan's sched queues.
type planPool struct {
	work  chan blockTask
	start []chan struct{}
	wg    sync.WaitGroup
}

// Plan is a reusable execution plan for Â = S·A — the inspector half of an
// inspector–executor split. NewPlan inspects (A, d, Options) once: it
// resolves AlgAuto with the §III-B cost model, fixes (b_d, b_n), refines the
// column grid into an nnz-balanced partition, builds the weighted task list
// and LPT-prepacked work-stealing queues, performs the CSC→BlockedCSR
// conversion (Alg4) and the ScaledInt pre-scaled clone of A, and allocates
// per-worker samplers and scratch. Execute then computes the sketch with
// zero steady-state allocations, dispatching onto a persistent worker pool
// shared across calls.
//
// A Plan pins the matrix it was built for: the caller must not mutate A
// between Execute calls. Execute is safe for concurrent use (calls are
// serialised internally; each one saturates the plan's workers anyway).
// A Plan must not be copied.
//
// Lifecycle: a plan is reference-counted. NewPlan returns it holding one
// reference, which Close releases (idempotently). Shared holders — a plan
// cache serving concurrent requests — take additional references with
// Retain and drop them with Release; the worker pool shuts down when the
// last reference goes, never mid-Execute, so an evicting cache can Close a
// plan while requests still execute on it.
type Plan struct {
	d    int
	n    int // columns of A = columns of Â
	opts Options
	alg  Algorithm
	bd   int
	bn   int

	// Sparse sketch family: resolved per-column nonzero count (0 = dense).
	sparsity int

	flops    int64
	a        *sparse.CSC        // Alg3 input (ScaledInt: pre-scaled clone)
	colStart []int              // column partition; slab k = [colStart[k], colStart[k+1])
	slabs    []*sparse.CSC      // Alg3 column slabs, indexed by task.slab
	blocked  *sparse.BlockedCSR // Alg4 structure, converted once
	tasks    []blockTask
	workers  int
	schedIs  Scheduler
	sch      *sched
	busyBuf  []time.Duration
	stats    PlanStats

	// gate is a capacity-1 semaphore serialising Execute rounds and the
	// final shutdown. Unlike a sync.Mutex it can be acquired in a select
	// against ctx.Done(), which is what makes ExecuteContext's queueing
	// cancellable.
	gate     chan struct{}
	met      *PlanMetrics // optional execute observability (SetMetrics)
	refs     atomic.Int64 // live references; shutdown when it hits 0
	closeReq atomic.Bool  // Close already released the initial reference
	round    sync.WaitGroup
	ws       []*workspace
	pool     *planPool
	curAhat  *dense.Matrix
	curCtx   context.Context // non-nil only while a cancellable round runs
	closed   bool            // guarded by gate
}

// NewPlan inspects (a, d, opts) and returns an executable plan. It performs
// every per-matrix setup cost exactly once so that repeated Execute calls —
// the SAP solver, RandSVD power schemes, serving workloads — run at
// steady-state kernel speed.
func NewPlan(a *sparse.CSC, d int, opts Options) (*Plan, error) {
	if a == nil {
		return nil, ErrNilMatrix
	}
	if d <= 0 {
		return nil, fmt.Errorf("%w: d=%d", ErrInvalidSketchSize, d)
	}
	if opts.BlockD < 0 || opts.BlockN < 0 || opts.Workers < 0 || opts.Sparsity < 0 {
		return nil, fmt.Errorf("%w: negative (BlockD=%d BlockN=%d Workers=%d Sparsity=%d)",
			ErrBadOptions, opts.BlockD, opts.BlockN, opts.Workers, opts.Sparsity)
	}
	if opts.Sched < SchedWeighted || opts.Sched > SchedUniform {
		return nil, fmt.Errorf("%w: unknown scheduler %d", ErrBadOptions, int(opts.Sched))
	}
	if err := quickValidate(a); err != nil {
		return nil, err
	}
	start := time.Now()
	p := &Plan{d: d, n: a.N, opts: opts, schedIs: opts.Sched, gate: make(chan struct{}, 1)}
	p.refs.Store(1)

	// Resolve the sparse-family nonzero count once: the default ⌈√d⌉ rule,
	// the [1, d] clamp and the CountSketch s=1 pin all happen here, so the
	// kernels, the cost model and PlanStats agree on one effective s.
	if rng.IsSparse(opts.Dist) {
		p.sparsity = rng.SJLTSparsity(opts.Dist, opts.Sparsity, d)
		p.opts.Sparsity = p.sparsity
	} else {
		p.opts.Sparsity = 0
	}

	// Resolve AlgAuto once, at plan time (the inspector of §III-B).
	alg := opts.Algorithm
	if alg == AlgAuto {
		alg = ChooseAlgorithm(a, d, p.opts, opts.RNGCost, 0)
	}
	p.alg = alg
	p.opts.Algorithm = alg

	bd, bn := resolveBlockSizes(d, a.N, alg, opts.BlockD, opts.BlockN)
	if opts.TuneBlockN && opts.BlockN == 0 && alg == Alg4 && a.N > 0 {
		// Feed the §III-B sample-count tuner into the block-size choice.
		// b_n affects traffic only, never RNG checkpoints, so tuning
		// cannot change the sketch values.
		h := opts.RNGCost
		if h <= 0 {
			h = 1
		}
		h *= rng.DistCost(opts.Dist)
		if ranked := analysis.TuneBlockN(a, d, h, nil); len(ranked) > 0 {
			bn = ranked[0].BlockN
			p.stats.TunedBlockN = true
		}
	}
	p.bd, p.bn = bd, bn

	// The scaling trick stores S as raw int32 values; fold the 2⁻³¹ factor
	// into A once per plan so the hot loop does no per-sample scaling
	// (§III-C: computing (Sf)(A/f) with f = 1/maxint).
	src := a
	if opts.Dist == rng.ScaledInt {
		src = a.Clone()
		src.Scale(rng.Scale31)
	}
	p.a = src
	if p.sparsity > 0 {
		// Sparse family: each stored entry of A meets only the s nonzeros
		// of its S column, not all d rows.
		p.flops = 2 * int64(p.sparsity) * int64(a.NNZ())
	} else {
		p.flops = 2 * int64(d) * int64(a.NNZ())
	}

	// Resolve the worker budget before partitioning: the slab target
	// scales with it. The final worker count is re-clamped to the task
	// count below.
	w := opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}

	// Column partition: the uniform b_n grid for SchedUniform, the
	// nnz-refined partition otherwise. Repartitioning is bit-safe — slab
	// boundaries stay on whole columns and every kernel call re-anchors
	// the RNG per (block-row, sparse-row) — see schedule.go.
	blockRows := (d + bd - 1) / bd
	if p.schedIs == SchedUniform {
		p.colStart = sparse.UniformColSplit(a.N, bn)
	} else {
		p.colStart, p.stats.SlabsSplit, p.stats.SlabsFused =
			colPartition(src, bn, targetSlabCount(w, blockRows, a.N))
	}
	p.tasks = makeWeightedTasks(d, bd, src, p.colStart, p.sparsity)

	if w > len(p.tasks) {
		w = len(p.tasks)
	}
	if w < 1 {
		w = 1
	}
	p.workers = w

	nSlabs := len(p.colStart) - 1
	if alg == Alg4 {
		tc := time.Now()
		p.blocked = sparse.NewBlockedCSRPartition(src, p.colStart, w)
		p.stats.ConvertTime = time.Since(tc)
	} else {
		// Pre-slice the CSC column slabs so Execute never allocates the
		// per-slab headers Kernel3 consumes.
		p.slabs = make([]*sparse.CSC, nSlabs)
		for k := 0; k < nSlabs; k++ {
			p.slabs[k] = src.ColSlice(p.colStart[k], p.colStart[k+1])
		}
	}

	p.ws = make([]*workspace, w)
	for i := range p.ws {
		s := rng.NewSampler(rng.NewSource(opts.Source, opts.Seed), opts.Dist)
		p.ws[i] = &workspace{gen: kernels.NewGen(s, d, bd, p.sparsity)}
	}
	p.busyBuf = make([]time.Duration, w)
	if p.schedIs != SchedUniform && w > 1 {
		p.sch = newSched(p.tasks, w)
	}

	p.stats.Algorithm = alg
	p.stats.BlockD, p.stats.BlockN = bd, bn
	p.stats.Workers = w
	p.stats.Sparsity = p.sparsity
	p.stats.Tasks = len(p.tasks)
	p.stats.Scheduler = p.schedIs
	p.stats.Slabs = nSlabs
	if len(p.tasks) > 0 {
		min, max, sum := p.tasks[0].weight, p.tasks[0].weight, int64(0)
		weights := make([]int64, len(p.tasks))
		for i, t := range p.tasks {
			weights[i] = t.weight
			if t.weight < min {
				min = t.weight
			}
			if t.weight > max {
				max = t.weight
			}
			sum += t.weight
		}
		p.stats.MinTaskWeight, p.stats.MaxTaskWeight = min, max
		p.stats.MeanTaskWeight = float64(sum) / float64(len(p.tasks))
		p.stats.PredictedImbalance = analysis.PredictImbalance(weights, w)
	}
	p.stats.PlanTime = time.Since(start)
	return p, nil
}

// D returns the sketch size (rows of Â).
func (p *Plan) D() int { return p.d }

// N returns the column count of the planned input (columns of Â).
func (p *Plan) N() int { return p.n }

// Options returns the plan's configuration with Algorithm resolved.
func (p *Plan) Options() Options { return p.opts }

// Stats returns what planning decided and cost. The one-time ConvertTime
// lives here; Execute's per-call Stats never include it.
func (p *Plan) Stats() PlanStats { return p.stats }

// Execute computes Â = S·A into the caller's d×n matrix, overwriting it.
// Steady-state calls are allocation-free: samplers, scratch vectors, the
// task list, the scheduler queues, and the blocked sparse structure are all
// reused from the plan, and the worker pool persists across calls (started
// lazily on the first parallel Execute, shut down by Close). The result is
// bit-identical to the one-shot Sketcher path under the same (seed, d,
// blocking), independent of the worker count, the scheduler, and of how
// many times the plan has been executed.
func (p *Plan) Execute(ahat *dense.Matrix) (Stats, error) {
	return p.ExecuteContext(context.Background(), ahat)
}

// ExecuteContext is Execute with cancellation: the wait for the plan's
// execute slot is a select against ctx.Done(), and once the round is
// running the workers poll ctx between tasks and bail out early on
// cancellation — a deadline or cancel therefore propagates into the worker
// pool instead of letting the round run to completion. On a ctx error the
// returned Stats are zero and ahat holds a partial, unusable sketch.
// Like Execute, steady-state calls allocate nothing.
func (p *Plan) ExecuteContext(ctx context.Context, ahat *dense.Matrix) (Stats, error) {
	if ahat == nil {
		return Stats{}, fmt.Errorf("core: Execute: nil output matrix")
	}
	if ahat.Rows != p.d || ahat.Cols != p.n {
		return Stats{}, fmt.Errorf("core: Execute Â is %dx%d, want %dx%d",
			ahat.Rows, ahat.Cols, p.d, p.n)
	}
	select {
	case p.gate <- struct{}{}:
	case <-ctx.Done():
		return Stats{}, ctx.Err()
	}
	defer func() { <-p.gate }()
	if p.closed {
		return Stats{}, ErrPlanClosed
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	start := time.Now()
	for _, ws := range p.ws {
		ws.samples = 0
		ws.sampleTime = 0
		ws.busy = 0
		ws.steals = 0
	}
	p.curAhat = ahat
	if ctx.Done() != nil {
		// Publish the context for the workers' between-task cancellation
		// polls. The channel sends below give the happens-before edge; the
		// field stays nil for uncancellable contexts so the hot path pays
		// no Err() calls.
		p.curCtx = ctx
	}
	if p.workers > 1 {
		if p.pool == nil {
			p.startPool()
		}
		if p.schedIs == SchedUniform {
			p.round.Add(len(p.tasks))
			for _, t := range p.tasks {
				p.pool.work <- t
			}
			p.round.Wait()
		} else {
			// One wake token per worker; each worker drains its LPT
			// queue, then steals, then Dones exactly once. The private
			// channels give the happens-before edge that publishes the
			// counter reset; the WaitGroup publishes results back.
			p.sch.reset()
			p.round.Add(p.workers)
			for _, c := range p.pool.start {
				c <- struct{}{}
			}
			p.round.Wait()
		}
	} else {
		ws := p.ws[0]
		t0 := time.Now()
		for _, t := range p.tasks {
			p.runTask(t, ws)
		}
		ws.busy = time.Since(t0)
	}
	p.curAhat = nil
	p.curCtx = nil
	if err := ctx.Err(); err != nil {
		// The round was cut short: remaining tasks were skipped, so ahat
		// is partial garbage. Report the cancellation, not stats.
		return Stats{}, err
	}

	st := Stats{Flops: p.flops}
	var maxBusy, sumBusy time.Duration
	for i, ws := range p.ws {
		st.Samples += ws.samples
		st.SampleTime += ws.sampleTime
		st.Steals += ws.steals
		p.busyBuf[i] = ws.busy
		sumBusy += ws.busy
		if ws.busy > maxBusy {
			maxBusy = ws.busy
		}
	}
	st.WorkerBusy = p.busyBuf
	if sumBusy > 0 {
		st.Imbalance = float64(maxBusy) * float64(p.workers) / float64(sumBusy)
	}
	st.Total = time.Since(start)
	p.recordMetrics(&st)
	return st, nil
}

// Close releases the reference NewPlan handed out. It is idempotent. If no
// Retain-ed references remain, the worker pool shuts down (waiting out any
// in-flight Execute) and subsequent Executes return ErrPlanClosed;
// otherwise shutdown is deferred to the final Release.
func (p *Plan) Close() {
	if p.closeReq.CompareAndSwap(false, true) {
		p.Release()
	}
}

// Retain takes an additional reference on the plan, keeping its worker pool
// alive across Close until the matching Release. It reports false — and
// takes nothing — when every reference is already gone (the plan is closed
// or closing); a caller seeing false must not Execute.
func (p *Plan) Retain() bool {
	for {
		r := p.refs.Load()
		if r <= 0 {
			return false
		}
		if p.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops a reference taken by Retain (or, via Close, the initial
// one). The last Release shuts the worker pool down; it waits for an
// in-flight Execute to finish first, so a cache can release a plan that
// concurrent requests are still executing on without a use-after-close.
func (p *Plan) Release() {
	n := p.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("core: Plan reference over-released")
	}
	p.gate <- struct{}{}
	defer func() { <-p.gate }()
	if p.closed {
		return
	}
	p.closed = true
	if p.pool != nil {
		close(p.pool.work)
		for _, c := range p.pool.start {
			close(c)
		}
		p.pool.wg.Wait()
		p.pool = nil
	}
}

// startPool launches the persistent workers. Worker i owns workspace i for
// the lifetime of the pool; round state (curAhat, accumulator and scheduler
// resets) is published to workers by the happens-before edges of the task
// or start channels and collected back through the round WaitGroup.
func (p *Plan) startPool() {
	p.pool = &planPool{work: make(chan blockTask)}
	if p.schedIs == SchedUniform {
		for i := 0; i < p.workers; i++ {
			ws := p.ws[i]
			p.pool.wg.Add(1)
			go func() {
				defer p.pool.wg.Done()
				for t := range p.pool.work {
					t0 := time.Now()
					p.runTask(t, ws)
					ws.busy += time.Since(t0)
					p.round.Done()
				}
			}()
		}
		return
	}
	p.pool.start = make([]chan struct{}, p.workers)
	for i := 0; i < p.workers; i++ {
		i := i
		ws := p.ws[i]
		c := make(chan struct{})
		p.pool.start[i] = c
		p.pool.wg.Add(1)
		go func() {
			defer p.pool.wg.Done()
			for range c {
				p.runWorker(i, ws)
				p.round.Done()
			}
		}()
	}
}

// runWorker is one weighted-scheduler worker's round: drain the own LPT
// queue front-to-back (heaviest first), then — with stealing enabled — keep
// claiming from whichever victim has the most remaining queued weight until
// every queue is empty. Claims go through the victim's atomic cursor, so a
// task runs exactly once no matter who wins it; the sketch bits cannot
// depend on the winner because every kernel call re-anchors the RNG.
func (p *Plan) runWorker(w int, ws *workspace) {
	t0 := time.Now()
	s := p.sch
	for {
		ti := s.claim(w)
		if ti < 0 {
			break
		}
		p.runTask(p.tasks[ti], ws)
	}
	if p.schedIs == SchedWeighted {
		for {
			v := s.victim(w)
			if v < 0 {
				break
			}
			ti := s.claim(v)
			if ti < 0 {
				// Lost the race for the victim's tail; let the owner's
				// in-flight remain-updates land before rescanning.
				runtime.Gosched()
				continue
			}
			ws.steals++
			p.runTask(p.tasks[ti], ws)
		}
	}
	ws.busy += time.Since(t0)
}

// runTask executes one outer-block cell. Cells write disjoint regions of Â,
// so tasks parallelise without synchronisation (§II-C); results are
// reproducible regardless of scheduling because every kernel call re-anchors
// the RNG at its own (block-row, sparse-row) checkpoints. The tasks tile
// all of Â, empty slabs included, and each one zeroes its own cell just
// before its kernel accumulates into it: Â is initialised in parallel and
// while the cell is in cache, whatever it held before.
func (p *Plan) runTask(t blockTask, ws *workspace) {
	if c := p.curCtx; c != nil && c.Err() != nil {
		// Round cancelled: skip the compute but keep draining, so the
		// claim/channel protocol and the round WaitGroup stay balanced.
		return
	}
	sub := &ws.sub
	p.curAhat.ViewInto(sub, t.i0, t.j0, t.d1, t.n1)
	sub.Zero()
	var timer *time.Duration
	if p.opts.Timed {
		timer = &ws.sampleTime
	}
	if p.alg == Alg4 {
		ws.samples += kernels.Kernel4(sub, p.blocked.Blocks[t.slab], ws.gen, uint64(t.i0), timer)
	} else {
		ws.samples += kernels.Kernel3(sub, p.slabs[t.slab], ws.gen, uint64(t.i0), timer)
	}
}
