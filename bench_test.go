// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// DESIGN.md §3) plus the ablation benches of DESIGN.md §4. These run on
// deliberately small instances so `go test -bench=.` finishes quickly; the
// full-size regenerations live in cmd/spmmbench and cmd/lsqbench.
package sketchsp

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sketchsp/internal/analysis"
	"sketchsp/internal/baseline"
	"sketchsp/internal/bench"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/kernels"
	"sketchsp/internal/rng"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
	"sketchsp/internal/sparseqr"
)

// benchMatrix is an mk-12-scale workload reused across SpMM benches.
func benchMatrix(b *testing.B) (*sparse.CSC, int) {
	b.Helper()
	a := sparse.RandomUniform(6000, 600, 4e-3, 1)
	return a, 3 * a.N
}

func newSketcher(b *testing.B, d int, opts core.Options) *core.Sketcher {
	b.Helper()
	sk, err := core.NewSketcher(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

func sketchFlops(d int, a *sparse.CSC) int64 { return 2 * int64(d) * int64(a.NNZ()) }

// BenchmarkTable1Properties measures workload generation (the Table I
// stand-ins at a small scale).
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := bench.SpMMWorkloads(0.01, int64(i))
		if len(ws) != 5 {
			b.Fatal("bad workload count")
		}
	}
}

// BenchmarkTable2 races Algorithm 3 against the pre-generated baselines.
func BenchmarkTable2(b *testing.B) {
	a, d := benchMatrix(b)
	sk := newSketcher(b, d, core.Options{Seed: 1, Workers: 1})
	s := sk.MaterializeS(a.M)
	at := a.Transpose().ToCSR()
	out := dense.NewMatrix(d, a.N)
	flops := sketchFlops(d, a)

	b.Run("MKLStyle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.MKLStyle(s, at, out)
		}
		b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GF/s")
	})
	b.Run("EigenStyle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.EigenStyle(s, a, out)
		}
		b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GF/s")
	})
	b.Run("JuliaStyle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.JuliaStyle(s, a, out)
		}
		b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GF/s")
	})
	for _, dc := range []struct {
		name string
		dist rng.Distribution
	}{{"Alg3Uniform", rng.Uniform11}, {"Alg3Scaled", rng.ScaledInt}, {"Alg3PM1", rng.Rademacher}} {
		dc := dc
		b.Run(dc.name, func(b *testing.B) {
			sk := newSketcher(b, d, core.Options{Dist: dc.dist, Seed: 1, Workers: 1})
			for i := 0; i < b.N; i++ {
				sk.SketchInto(out, a)
			}
			b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}

// BenchmarkTable3SampleBreakdown times the instrumented kernels
// (Frontera-config blocking b_n = 500).
func BenchmarkTable3SampleBreakdown(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	for _, alg := range []core.Algorithm{core.Alg3, core.Alg4} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			sk := newSketcher(b, d, core.Options{
				Algorithm: alg, Seed: 1, Workers: 1, Timed: true, BlockN: 500,
			})
			var sample, total float64
			for i := 0; i < b.N; i++ {
				st := sk.SketchInto(out, a)
				sample += st.SampleTime.Seconds()
				total += st.Total.Seconds()
			}
			if total > 0 {
				b.ReportMetric(sample/total, "sample-frac")
			}
		})
	}
}

// BenchmarkTable4Alg4 covers the Perlmutter-config comparison: Algorithm 4
// compute plus the separately-timed blocked-CSR conversion.
func BenchmarkTable4Alg4(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	for _, dc := range []struct {
		name string
		dist rng.Distribution
	}{{"Uniform", rng.Uniform11}, {"PM1", rng.Rademacher}} {
		dc := dc
		b.Run(dc.name, func(b *testing.B) {
			sk := newSketcher(b, d, core.Options{
				Algorithm: core.Alg4, Dist: dc.dist, Seed: 1, Workers: 1, BlockN: 300,
			})
			for i := 0; i < b.N; i++ {
				sk.SketchInto(out, a)
			}
		})
	}
	b.Run("Conversion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.NewBlockedCSRPartition(a, sparse.UniformColSplit(a.N, 300), 1)
		}
	})
}

// BenchmarkTable5SampleBreakdown is Table III's twin with the wide-slab
// (Perlmutter) blocking.
func BenchmarkTable5SampleBreakdown(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	for _, alg := range []core.Algorithm{core.Alg3, core.Alg4} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			sk := newSketcher(b, d, core.Options{
				Algorithm: alg, Seed: 1, Workers: 1, Timed: true, BlockN: 1200,
			})
			for i := 0; i < b.N; i++ {
				sk.SketchInto(out, a)
			}
		})
	}
}

// BenchmarkTable6Abnormal races the kernels on the exotic patterns.
func BenchmarkTable6Abnormal(b *testing.B) {
	ws := bench.AbnormalWorkloads(0.04, 1)
	for _, w := range ws {
		for _, alg := range []core.Algorithm{core.Alg3, core.Alg4} {
			w, alg := w, alg
			b.Run(fmt.Sprintf("%s/%s", w.Name, alg), func(b *testing.B) {
				sk := newSketcher(b, w.D, core.Options{Algorithm: alg, Seed: 1, Workers: 1})
				out := dense.NewMatrix(w.D, w.A.N)
				for i := 0; i < b.N; i++ {
					sk.SketchInto(out, w.A)
				}
			})
		}
	}
}

// BenchmarkTable7Parallel sweeps worker counts (meaningful only on
// multi-core hosts; see EXPERIMENTS.md).
func BenchmarkTable7Parallel(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, alg := range []core.Algorithm{core.Alg3, core.Alg4} {
			workers, alg := workers, alg
			b.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(b *testing.B) {
				sk := newSketcher(b, d, core.Options{
					Algorithm: alg, Seed: 1, Workers: workers, BlockD: 256, BlockN: 64,
				})
				for i := 0; i < b.N; i++ {
					sk.SketchInto(out, a)
				}
			})
		}
	}
}

// BenchmarkFig4Distributions is the Figure 4 series at one density.
func BenchmarkFig4Distributions(b *testing.B) {
	a := sparse.RandomUniform(4000, 400, 1e-3, 2)
	d := 3 * a.N
	out := dense.NewMatrix(d, a.N)
	for _, dc := range []struct {
		name string
		dist rng.Distribution
	}{
		{"GaussianFly", rng.Gaussian},
		{"UniformFly", rng.Uniform11},
		{"ScalingTrick", rng.ScaledInt},
		{"PM1Fly", rng.Rademacher},
		{"JunkUpperBound", rng.Junk},
	} {
		dc := dc
		b.Run(dc.name, func(b *testing.B) {
			sk := newSketcher(b, d, core.Options{
				Algorithm: core.Alg4, Dist: dc.dist, Seed: 1, Workers: 1,
			})
			for i := 0; i < b.N; i++ {
				sk.SketchInto(out, a)
			}
		})
	}
	b.Run("PregenMem", func(b *testing.B) {
		sk := newSketcher(b, d, core.Options{Seed: 1, Workers: 1})
		s := sk.MaterializeS(a.M)
		for i := 0; i < b.N; i++ {
			baseline.EigenStyle(s, a, out)
		}
	})
}

// lsBenchProblem is a small rail-like LS instance.
func lsBenchProblem(b *testing.B) (*sparse.CSC, []float64) {
	b.Helper()
	a := sparse.RowIntervals(8000, 80, 8, 3)
	rhs := bench.PaperRHS(a, 4)
	return a, rhs
}

// BenchmarkTable9Solvers times the three least-squares solvers.
func BenchmarkTable9Solvers(b *testing.B) {
	a, rhs := lsBenchProblem(b)
	opts := solver.Options{Sketch: core.Options{Seed: 1, Workers: 1}}
	b.Run("SAPQR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SolveSAPQR(a, rhs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SAPSVD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SolveSAPSVD(a, rhs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LSQRD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SolveLSQRD(a, rhs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SolveDirect(a, rhs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable10ErrorMetric times the backward-error evaluation itself.
func BenchmarkTable10ErrorMetric(b *testing.B) {
	a, rhs := lsBenchProblem(b)
	x, _, err := solver.SolveSAPQR(a, rhs, solver.Options{Sketch: core.Options{Seed: 1, Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		solver.ErrorMetric(a, x, rhs)
	}
}

// BenchmarkTable11DirectFactor measures the direct factorization whose
// memory footprint Table XI reports (memory via -benchmem allocations).
func BenchmarkTable11DirectFactor(b *testing.B) {
	a, rhs := lsBenchProblem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparseqr.Factorize(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SpeedupInputs measures the two ratio numerators of Fig 6.
func BenchmarkFig6SpeedupInputs(b *testing.B) {
	BenchmarkTable9Solvers(b)
}

// ---- ablation benches (DESIGN.md §4) ----

// BenchmarkAblationLoopOrder races the six Algorithm-2 orderings.
func BenchmarkAblationLoopOrder(b *testing.B) {
	a := sparse.RandomUniform(800, 200, 0.02, 3)
	csr := a.ToCSR()
	d := 256
	sk := newSketcher(b, d, core.Options{Seed: 1, Workers: 1})
	l := sk.MaterializeS(a.M)
	g := dense.NewMatrix(d, a.N)
	for _, order := range kernels.AllLoopOrders() {
		order := order
		b.Run(order.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Zero()
				kernels.MultiplyLoopOrder(order, l, a, csr, g)
			}
		})
	}
}

// BenchmarkAblationPregen contrasts on-the-fly generation against reading a
// materialised S: the same Algorithm 4 loop over b_n = 300 slabs, fed by a
// regenerating and by a pre-generated column generator.
func BenchmarkAblationPregen(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	sk := newSketcher(b, d, core.Options{Algorithm: core.Alg4, BlockN: 300, Seed: 1, Workers: 1})
	b.Run("OnTheFly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.SketchInto(out, a)
		}
	})
	b.Run("Pregen", func(b *testing.B) {
		g := kernels.NewPregenGen(sk.MaterializeS(a.M))
		blocked := sparse.NewBlockedCSRPartition(a, sparse.UniformColSplit(a.N, 300), 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.Zero()
			for k, slab := range blocked.Blocks {
				sub := out.View(0, blocked.ColStart[k], d, slab.N)
				kernels.Kernel4(sub, slab, g, 0, nil)
			}
		}
	})
}

// BenchmarkAblationRNGLanes measures the 4-lane batching win over the
// scalar xoshiro stream.
func BenchmarkAblationRNGLanes(b *testing.B) {
	buf := make([]float64, 3000)
	b.Run("Batch4", func(b *testing.B) {
		s := rng.NewSampler(rng.NewBatchXoshiro(1), rng.Uniform11)
		b.SetBytes(int64(len(buf)) * 8)
		for i := 0; i < b.N; i++ {
			s.SetState(0, uint64(i))
			s.Fill(buf)
		}
	})
	b.Run("Scalar", func(b *testing.B) {
		s := rng.NewSampler(rng.NewScalarXoshiroSource(1), rng.Uniform11)
		b.SetBytes(int64(len(buf)) * 8)
		for i := 0; i < b.N; i++ {
			s.SetState(0, uint64(i))
			s.Fill(buf)
		}
	})
}

// BenchmarkAblationCBRNG contrasts xoshiro checkpointing against the
// counter-based Philox (the ~5x factor of §IV-B).
func BenchmarkAblationCBRNG(b *testing.B) {
	buf := make([]float64, 3000)
	for _, sc := range []struct {
		name string
		kind rng.SourceKind
	}{{"XoshiroBatch", rng.SourceBatchXoshiro}, {"Philox", rng.SourcePhilox}} {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			s := rng.NewSampler(rng.NewSource(sc.kind, 1), rng.Uniform11)
			b.SetBytes(int64(len(buf)) * 8)
			for i := 0; i < b.N; i++ {
				s.SetState(0, uint64(i))
				s.Fill(buf)
			}
		})
	}
}

// BenchmarkAblationBlockSize sweeps (b_d, b_n) around the defaults.
func BenchmarkAblationBlockSize(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	for _, bd := range []int{128, 512, 1800} {
		for _, bn := range []int{50, 200, 600} {
			bd, bn := bd, bn
			b.Run(fmt.Sprintf("bd=%d/bn=%d", bd, bn), func(b *testing.B) {
				sk := newSketcher(b, d, core.Options{Seed: 1, Workers: 1, BlockD: bd, BlockN: bn})
				for i := 0; i < b.N; i++ {
					sk.SketchInto(out, a)
				}
			})
		}
	}
}

// BenchmarkAblationScaling isolates the scaling trick against plain
// uniform generation.
func BenchmarkAblationScaling(b *testing.B) {
	a, d := benchMatrix(b)
	out := dense.NewMatrix(d, a.N)
	for _, dc := range []struct {
		name string
		dist rng.Distribution
	}{{"Uniform64", rng.Uniform11}, {"ScaledInt32", rng.ScaledInt}} {
		dc := dc
		b.Run(dc.name, func(b *testing.B) {
			sk := newSketcher(b, d, core.Options{Dist: dc.dist, Seed: 1, Workers: 1})
			for i := 0; i < b.N; i++ {
				sk.SketchInto(out, a)
			}
		})
	}
}

// BenchmarkCacheSimTraffic measures the simulator itself (used by
// analysisbench -cachesim).
func BenchmarkCacheSimTraffic(b *testing.B) {
	a := sparse.RandomUniform(500, 100, 0.02, 1)
	for i := 0; i < b.N; i++ {
		analysis.TraceAlg3(a, 300, 64, 16, analysis.NewCache(1<<10))
	}
}

// BenchmarkAblationParallelRNG measures §II-C's claim that multithreading
// the per-call random number generation (line 8 of Algorithm 3) is
// ineffective: the synchronisation overhead of splitting one d₁-length fill
// across goroutines exceeds the work itself at realistic block heights.
func BenchmarkAblationParallelRNG(b *testing.B) {
	const d1 = 3000
	buf := make([]float64, d1)
	b.Run("Sequential", func(b *testing.B) {
		s := rng.NewSampler(rng.NewBatchXoshiro(1), rng.Uniform11)
		b.SetBytes(d1 * 8)
		for i := 0; i < b.N; i++ {
			s.SetState(0, uint64(i))
			s.Fill(buf)
		}
	})
	for _, workers := range []int{2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("Goroutines%d", workers), func(b *testing.B) {
			samplers := make([]*rng.Sampler, workers)
			for w := range samplers {
				samplers[w] = rng.NewSampler(rng.NewBatchXoshiro(uint64(w+1)), rng.Uniform11)
			}
			b.SetBytes(d1 * 8)
			var wg sync.WaitGroup
			for i := 0; i < b.N; i++ {
				chunk := (d1 + workers - 1) / workers
				for w := 0; w < workers; w++ {
					lo := w * chunk
					hi := lo + chunk
					if hi > d1 {
						hi = d1
					}
					wg.Add(1)
					go func(w, lo, hi int) {
						defer wg.Done()
						samplers[w].SetState(uint64(w), uint64(i))
						samplers[w].Fill(buf[lo:hi])
					}(w, lo, hi)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkApplications measures the two §I application pipelines built on
// the sketching engine.
func BenchmarkApplications(b *testing.B) {
	a := sparse.RandomUniform(5000, 300, 5e-3, 7)
	b.Run("RandSVD-rank10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.RandSVD(a, 10, 8, 1, core.Options{Seed: 1, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LeverageScores", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.LeverageScores(a, 64, solver.Options{Sketch: core.Options{Seed: 1, Workers: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinNorm", func(b *testing.B) {
		wide := a.Transpose()
		rhs := make([]float64, wide.M)
		for i := range rhs {
			rhs[i] = float64(i%7) - 3
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SolveMinNorm(wide, rhs, solver.Options{Sketch: core.Options{Seed: 1, Workers: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanReuse demonstrates the planner/executor win: steady-state
// Plan.Execute is allocation-free (0 allocs/op) and never re-pays the
// CSC→BlockedCSR conversion, while the per-call Sketch path replans — and
// reconverts, for Algorithm 4 — on every invocation.
func BenchmarkPlanReuse(b *testing.B) {
	a, d := benchMatrix(b)
	configs := []struct {
		name string
		opts core.Options
	}{
		{"Alg3/seq", core.Options{Algorithm: core.Alg3, Seed: 1, Workers: 1}},
		{"Alg4/seq", core.Options{Algorithm: core.Alg4, Seed: 1, Workers: 1}},
		{"Alg4/workers4", core.Options{Algorithm: core.Alg4, Seed: 1, Workers: 4, BlockD: 450, BlockN: 150}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run("Execute/"+cfg.name, func(b *testing.B) {
			p, err := core.NewPlan(a, d, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			out := dense.NewMatrix(d, a.N)
			if _, err := p.Execute(out); err != nil { // warm the worker pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("SketchPerCall/"+cfg.name, func(b *testing.B) {
			sk := newSketcher(b, d, cfg.opts)
			out := dense.NewMatrix(d, a.N)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sk.SketchInto(out, a)
			}
		})
	}
}

// BenchmarkServiceHit mirrors BenchmarkPlanReuse one layer up: the whole
// service request path on a cache hit — admission gate, O(nnz) fingerprint,
// cache lookup, refcount, allocation-free Execute, metrics — versus the
// bare plan execute it wraps. The hit path must stay at 0 allocs/op
// (TestServiceHitZeroAlloc in internal/service enforces it; the -benchmem
// column here shows it). Run it with `go test -run - -bench ServiceHit .`;
// end-to-end serving throughput is perfbench's `serve` workload.
func BenchmarkServiceHit(b *testing.B) {
	a, d := benchMatrix(b)
	configs := []struct {
		name string
		opts SketchOptions
	}{
		{"Alg3/seq", SketchOptions{Algorithm: Alg3, Seed: 1, Workers: 1}},
		{"Alg4/workers4", SketchOptions{Algorithm: Alg4, Seed: 1, Workers: 4, BlockD: 450, BlockN: 150}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			svc := NewService(ServiceConfig{Capacity: 4, MaxInFlight: 2})
			defer svc.Close()
			out := NewDense(d, a.N)
			ctx := context.Background()
			if _, err := svc.SketchInto(ctx, out, a, d, cfg.opts); err != nil {
				b.Fatal(err) // miss: build the plan, warm the pool
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.SketchInto(ctx, out, a, d, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkewedExecute is the PR-2 acceptance benchmark: on skewed inputs
// the nnz-aware weighted work-stealing scheduler must beat the uniform
// shared-channel dispatch. The AbnormalB instance is sized so that at
// bn = 500 the uniform grid puts ~all mass in ONE slab (n = 1500, middle
// third = exactly one slab): uniform dispatch then degenerates to one busy
// worker, while the weighted partition splits that slab into ~worker-count
// pieces. NOTE: the speedup only manifests on multi-core hosts; on a
// single-core machine the two schedulers are compute-bound identical (see
// EXPERIMENTS.md on parallel measurements).
func BenchmarkSkewedExecute(b *testing.B) {
	inputs := []struct {
		name string
		a    *sparse.CSC
	}{
		{"AbnormalB", sparse.AbnormalB(20000, 1500, 300000, 2998.0/3000.0, 1)},
		{"PowerLaw", sparse.PowerLaw(20000, 1500, 300000, 1.6, 1)},
	}
	const d = 900
	for _, in := range inputs {
		for _, sc := range []struct {
			name  string
			sched core.Scheduler
		}{
			{"uniform", core.SchedUniform},
			{"nosteal", core.SchedNoSteal},
			{"weighted", core.SchedWeighted},
		} {
			in, sc := in, sc
			b.Run(fmt.Sprintf("%s/%s", in.name, sc.name), func(b *testing.B) {
				p, err := core.NewPlan(in.a, d, core.Options{
					Algorithm: core.Alg3, Seed: 1, Workers: 8,
					BlockD: d, BlockN: 500, Sched: sc.sched,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				out := dense.NewMatrix(d, in.a.N)
				if _, err := p.Execute(out); err != nil { // warm the pool
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var last core.Stats
				for i := 0; i < b.N; i++ {
					st, err := p.Execute(out)
					if err != nil {
						b.Fatal(err)
					}
					last = st
				}
				b.ReportMetric(float64(sketchFlops(d, in.a)*int64(b.N))/b.Elapsed().Seconds()/1e9, "GF/s")
				if last.Imbalance > 0 {
					b.ReportMetric(last.Imbalance, "imbalance")
				}
			})
		}
	}
}
