package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/bench"
	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/rng"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// The solve workload: ≤2 callers run SAP-QR least-squares solves through
// the server, by reference to uploaded matrices, most of them with the
// synchronous client.Solve and a fixed share with SolveAsync + JobWait.
// The working set is the rail2586 and rail4284 problems of
// bench.LSWorkloads at two seeds: four problems of similar cost, so the
// solves form one latency class; the async ones add only the job round
// trips, and the two classes overlap with no gap for a percentile to fall
// in. Every
// preconditioner is built during set-up, so setup_s carries the sketch +
// QR cost and the timed phase runs the solver, the jobs layer and the
// preconditioner cache. Each timed solve has a fresh right-hand side,
// derived from its caller, index and the seed.
const (
	solveScale      = 0.005
	solveGamma      = 2
	solveAsyncShare = 0.10
	solveWarmOps    = 150 // per caller
	// solvePoll is the JobWait poll interval, far below the ~2 ms solve.
	solvePoll = 100 * time.Microsecond
	// solveResidualBound is the stated accuracy: the backward error
	// solver.ErrorMetric of every answer.
	solveResidualBound = 1e-10
)

const (
	classSync = iota
	classAsync
)

type solveProblem struct {
	a  *sparse.CSC
	fp sparse.Fingerprint
	p  *solver.Precond // in-process reference preconditioner
}

type solveOp struct {
	k     int
	async bool
	seed  int64 // right-hand side seed
	b     []float64
}

// solvedRecord is what the post-run verification replays.
type solvedRecord struct {
	k    int
	seed int64
	x    uint64
}

func solveProblems(seed int64) []*sparse.CSC {
	var out []*sparse.CSC
	for s := seed; s < seed+2; s++ {
		for _, w := range bench.LSWorkloads(solveScale, s) {
			if w.Name == "rail2586" || w.Name == "rail4284" {
				out = append(out, w.A)
			}
		}
	}
	return out
}

func setupSolve(cfg setupConfig) (*instance, error) {
	callers := min(2, runtime.NumCPU())
	n, err := startNode(cfg.traced)
	if err != nil {
		return nil, err
	}
	var rt *spanSum
	if cfg.traced {
		rt = &spanSum{}
	}
	hc, closeIdle := httpClient(rt, nil)
	cleanup := func() {
		n.close()
		closeIdle()
	}
	ctx := context.Background()
	cl := client.New(n.url, client.Config{HTTPClient: hc})
	sketch := core.Options{Dist: rng.Rademacher, Seed: uint64(cfg.seed), Workers: 1, Timed: cfg.traced}
	sopts := solver.Options{Gamma: solveGamma, Sketch: sketch}

	var probs []solveProblem
	var buildMS float64
	for _, a := range solveProblems(cfg.seed) {
		info, err := cl.PutMatrix(ctx, a)
		if err != nil {
			cleanup()
			return nil, err
		}
		p, err := solver.BuildPrecond(ctx, solver.MethodSAPQR, a, sopts)
		if err != nil {
			cleanup()
			return nil, err
		}
		probs = append(probs, solveProblem{a: a, fp: info.Fp, p: p})
	}
	request := func(k int, b []float64, async bool) *wire.SolveRequest {
		return &wire.SolveRequest{Method: wire.SolveSAPQR, Async: async, Gamma: solveGamma,
			Opts: sketch, B: b, ByRef: true, Fp: probs[k].fp}
	}
	reference := func(k int, seed int64) ([]float64, []float64, error) {
		b := bench.PaperRHS(probs[k].a, seed)
		x, _, err := solver.SolvePrecond(ctx, probs[k].a, b, probs[k].p, sopts)
		return x, b, err
	}
	// Warm-up: one served solve per problem builds its preconditioner in
	// the service cache; its answer must already match the reference.
	for k := range probs {
		seed := cfg.seed*1000 + int64(k)
		want, b, err := reference(k, seed)
		if err == nil {
			var resp *wire.SolveResponse
			resp, err = cl.Solve(ctx, request(k, b, false))
			if err == nil && digest(resp.X) != digest(want) {
				err = fmt.Errorf("solve warm-up %d: answer differs from the in-process reference", k)
			}
			if err == nil {
				buildMS += float64(resp.Info.SketchNS+resp.Info.FactorNS) / 1e6
			}
		}
		if err != nil {
			cleanup()
			return nil, err
		}
	}

	rs := make([]*rand.Rand, callers)
	issued := make([]int64, callers) // right-hand sides drawn per caller
	for c := range rs {
		rs[c] = rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
	}
	var mu sync.Mutex
	var solved []solvedRecord
	var iters, iterNS, asyncOver, asyncN atomic.Int64
	var residMax atomic.Uint64 // float64 bits; residuals are non-negative
	inst := &instance{
		callers: callers,
		classes: []string{"sync", "async"},
		prepare: func(c int) any {
			r := rs[c]
			op := solveOp{k: r.Intn(len(probs)), async: r.Float64() < solveAsyncShare,
				seed: cfg.seed*1_000_003 + int64(c)<<32 + issued[c]}
			issued[c]++
			op.b = bench.PaperRHS(probs[op.k].a, op.seed)
			return op
		},
		do: func(ctx context.Context, o any) (answer, error) {
			op := o.(solveOp)
			class := classSync
			if op.async {
				class = classAsync
			}
			t0 := time.Now()
			var resp *wire.SolveResponse
			var err error
			if op.async {
				var id string
				id, err = cl.SolveAsync(ctx, request(op.k, op.b, true))
				if err == nil {
					resp, err = cl.JobWait(ctx, id, solvePoll)
				}
			} else {
				resp, err = cl.Solve(ctx, request(op.k, op.b, false))
			}
			if err != nil {
				return answer{class: class}, err
			}
			if cfg.traced {
				iters.Add(int64(resp.Info.Iters))
				iterNS.Add(resp.Info.IterNS)
				if op.async {
					asyncOver.Add(int64(time.Since(t0)) - resp.Info.TotalNS)
					asyncN.Add(1)
				}
			}
			return answer{class: class, data: [][]float64{resp.X}, op: op}, nil
		},
		check: func(a answer) error {
			op := a.op.(solveOp)
			x := a.data[0]
			res := solver.ErrorMetric(probs[op.k].a, x, op.b)
			if !(res <= solveResidualBound) {
				return fmt.Errorf("solve %d: residual %.3g above the bound %.0e", op.k, res, solveResidualBound)
			}
			for {
				old := residMax.Load()
				if math.Float64frombits(old) >= res || residMax.CompareAndSwap(old, math.Float64bits(res)) {
					break
				}
			}
			mu.Lock()
			solved = append(solved, solvedRecord{k: op.k, seed: op.seed, x: digest(x)})
			mu.Unlock()
			return nil
		},
		close: cleanup,
	}
	// finish replays every timed solve in process against the reference
	// preconditioner, on as many goroutines as callers, and counts answers
	// that are not bit-identical.
	inst.finish = func() (int, error) {
		mu.Lock()
		recs := solved
		solved = nil
		mu.Unlock()
		var bad atomic.Int64
		var firstErr error
		var errOnce sync.Once
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(recs); i += callers {
					x, _, err := reference(recs[i].k, recs[i].seed)
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					if digest(x) != recs[i].x {
						bad.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		return int(bad.Load()), firstErr
	}
	if err := warmUp(inst, solveWarmOps); err != nil {
		cleanup()
		return nil, err
	}
	if cfg.traced {
		var before map[string]float64
		inst.mark = func() {
			before = scrape(n.svc.Registry())
			rt.reset()
			n.spans.reset()
			iters.Store(0)
			iterNS.Store(0)
			asyncOver.Store(0)
			asyncN.Store(0)
			residMax.Store(0)
		}
		inst.layers = func(run *runResult) map[string]float64 {
			d := delta{before, scrape(n.svc.Registry())}
			out := map[string]float64{}
			ops := float64(max(run.attempted, 1))
			out["solver.iters_per_op"] = float64(iters.Load()) / ops
			out["solver.lsqr_ms"] = float64(iterNS.Load()) / 1e6 / ops
			out["solver.residual_max"] = math.Float64frombits(residMax.Load())
			out["solver.precond_build_ms"] = buildMS / float64(len(probs))
			h, m := d.get("sketchsp_solve_precond_hits_total"), d.get("sketchsp_solve_precond_misses_total")
			out["solver.precond_hit_ratio"] = ratio(h, h+m)
			out["jobs.async_overhead_ms"] = ratio(float64(asyncOver.Load())/1e6, float64(asyncN.Load()))
			caller := run.callerTime().Seconds()
			httpShares(out, caller, rt, n.spans,
				d.get("sketchsp_http_decode_seconds_sum"), d.get("sketchsp_http_encode_seconds_sum"))
			out["share.solver+jobs"] = ratio((n.spans.backend.total() + n.spans.job.total()).Seconds(), caller)
			out["share.kernels+rng+core"] = ratio(d.get("sketchsp_plan_execute_seconds_sum"), caller)
			return out
		}
	}
	return inst, nil
}
