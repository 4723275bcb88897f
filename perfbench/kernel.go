package main

import (
	"context"
	"runtime"
	"time"

	"sketchsp/internal/analysis"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// The kernel workload: one caller executes prebuilt plans directly, so
// the kernels, the RNG and the core scheduler do nearly all the work and
// every serving layer is bypassed. Each operation is one sweep over all 18
// plans (3 matrices × 3 distributions × 2 algorithms). Single executes
// differ by up to 10× between the dense and SJLT sketches, so percentiles
// over single executes would fall on the boundary between two plans and
// jump from run to run; a sweep has one cost class.
const (
	kernelM = 12000
	kernelN = 600
	kernelD = 64

	kernelWarmSweeps = 20
)

var kernelDists = []struct {
	name string
	dist rng.Distribution
}{{"dense", rng.Uniform11}, {"pm1", rng.Rademacher}, {"sjlt", rng.SJLT}}

var kernelAlgs = []struct {
	name string
	alg  core.Algorithm
}{{"alg3", core.Alg3}, {"alg4", core.Alg4}}

// kernelMatrices are the uniform, power-law-skewed and banded inputs,
// each with about 12k nonzeros.
func kernelMatrices(seed int64) []*sparse.CSC {
	return []*sparse.CSC{
		sparse.RandomUniform(kernelM, kernelN, 0.001, seed),
		sparse.PowerLaw(kernelM, kernelN, 7200, 1.2, seed+1),
		sparse.Banded(kernelM, kernelN, 2, 0.12, seed+2),
	}
}

type kernelPlan struct {
	cfg  int // kernelDists index × len(kernelAlgs) + kernelAlgs index
	plan *core.Plan
	out  *dense.Matrix
	nnz  int
	// Accumulated over the timed phase when traced: the Stats sums, the
	// workers' summed busy time, and how many executes measured an
	// imbalance.
	stats      core.Stats
	busy       time.Duration
	execs      int
	imbalanced int
}

func setupKernel(cfg setupConfig) (*instance, error) {
	workers := runtime.GOMAXPROCS(0)
	var plans []*kernelPlan
	closeAll := func() {
		for _, p := range plans {
			p.plan.Close()
		}
	}
	var want []uint64
	for mi, a := range kernelMatrices(cfg.seed) {
		for di, d := range kernelDists {
			for ai, al := range kernelAlgs {
				opts := core.Options{
					Algorithm: al.alg, Dist: d.dist, Seed: uint64(cfg.seed) + uint64(mi),
					BlockD: kernelD, BlockN: kernelN / 8, Workers: workers, Timed: cfg.traced,
				}
				p, err := core.NewPlan(a, kernelD, opts)
				if err != nil {
					closeAll()
					return nil, err
				}
				plans = append(plans, &kernelPlan{cfg: di*len(kernelAlgs) + ai, plan: p,
					out: dense.NewMatrix(kernelD, kernelN), nnz: a.NNZ()})
				// The reference runs sequentially under the default column
				// blocking: the bits must not depend on either.
				ref := opts
				ref.Workers, ref.BlockN, ref.Timed = 1, 0, false
				rd, err := referenceDigest(a, kernelD, ref)
				if err != nil {
					closeAll()
					return nil, err
				}
				want = append(want, rd)
			}
		}
	}

	sweep := func() (answer, error) {
		a := answer{data: make([][]float64, len(plans))}
		for k, p := range plans {
			st, err := p.plan.Execute(p.out)
			if err != nil {
				return answer{}, err
			}
			if cfg.traced {
				p.stats.Samples += st.Samples
				p.stats.Flops += st.Flops
				p.stats.SampleTime += st.SampleTime
				p.stats.Total += st.Total
				p.stats.Steals += st.Steals
				p.stats.Imbalance += st.Imbalance
				for _, b := range st.WorkerBusy {
					p.busy += b
				}
				if st.Imbalance > 0 {
					p.imbalanced++
				}
				p.execs++
			}
			a.data[k] = values(p.out)
		}
		return a, nil
	}
	check := checkDigests("kernel sweep", [][]uint64{want})

	inst := &instance{
		callers: 1,
		classes: []string{"sweep"},
		prepare: func(int) any { return nil },
		do:      func(ctx context.Context, _ any) (answer, error) { return sweep() },
		check:   check,
		close:   closeAll,
	}
	if err := warmUp(inst, kernelWarmSweeps); err != nil {
		closeAll()
		return nil, err
	}
	if cfg.traced {
		var host hostRoofline
		inst.mark = func() {
			host = measureRoofline()
			for _, p := range plans {
				p.stats, p.busy, p.execs, p.imbalanced = core.Stats{}, 0, 0, 0
			}
		}
		inst.layers = func(run *runResult) map[string]float64 {
			return kernelLayers(plans, run, host)
		}
	}
	return inst, nil
}

// referenceDigest sketches a with a fresh plan and digests the result.
func referenceDigest(a *sparse.CSC, d int, opts core.Options) (uint64, error) {
	out, err := referenceSketch(a, d, opts)
	if err != nil {
		return 0, err
	}
	return digest(values(out)), nil
}

func referenceSketch(a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, error) {
	p, err := core.NewPlan(a, d, opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out := dense.NewMatrix(d, a.N)
	if _, err := p.Execute(out); err != nil {
		return nil, err
	}
	return out, nil
}

// hostRoofline is the paper's Fig. 4 roofline inputs, measured on this
// host during the traced run: STREAM triad bandwidth, in-cache peak and
// the relative RNG cost h.
type hostRoofline struct {
	triadGBs, peakGFs, h float64
}

func measureRoofline() hostRoofline {
	const n, reps = 1 << 21, 3
	s := analysis.RunStream(n, reps)
	return hostRoofline{triadGBs: s.TriadGBs, peakGFs: s.PeakGFs, h: analysis.EstimateH(n, reps)}
}

func kernelLayers(plans []*kernelPlan, run *runResult, host hostRoofline) map[string]float64 {
	out := map[string]float64{}
	flops := make([]float64, len(kernelDists)*len(kernelAlgs))
	secs := make([]float64, len(flops))
	var all core.Stats
	var busy time.Duration
	var bytes, planMS, convertMS float64
	var alg4, imbalanced int
	for _, p := range plans {
		flops[p.cfg] += float64(p.stats.Flops)
		secs[p.cfg] += p.stats.Total.Seconds()
		all.Flops += p.stats.Flops
		all.Samples += p.stats.Samples
		all.SampleTime += p.stats.SampleTime
		all.Total += p.stats.Total
		all.Steals += p.stats.Steals
		all.Imbalance += p.stats.Imbalance
		imbalanced += p.imbalanced
		busy += p.busy
		// Bytes a roofline charges one execute: each sample costs h
		// streamed doubles, A is read once per block row (one here), and
		// the d×n output is written once.
		bytes += 8*host.h*float64(p.stats.Samples) +
			float64(p.execs)*(12*float64(p.nnz)+8*float64(kernelD*kernelN))
		ps := p.plan.Stats()
		planMS += ms(ps.PlanTime)
		if ps.Algorithm == core.Alg4 {
			convertMS += ms(ps.ConvertTime)
			alg4++
		}
	}
	for di, d := range kernelDists {
		for ai, al := range kernelAlgs {
			k := di*len(kernelAlgs) + ai
			out["kernels.gflops."+d.name+"."+al.name] = ratio(flops[k], secs[k]) / 1e9
		}
	}
	// STREAM, the peak loop and h are single-threaded, so the roofline
	// compares them with the rate per busy worker.
	perWorker := ratio(float64(all.Flops), busy.Seconds()) / 1e9
	attainable := min(host.peakGFs, host.triadGBs*ratio(float64(all.Flops), bytes))
	out["kernels.roofline_frac"] = ratio(perWorker, attainable)
	out["rng.sample_frac"] = ratio(all.SampleTime.Seconds(), busy.Seconds())
	sweeps := float64(max(run.attempted, 1))
	out["rng.samples_per_op"] = float64(all.Samples) / sweeps
	out["core.imbalance"] = ratio(all.Imbalance, float64(imbalanced))
	out["core.steals_per_op"] = float64(all.Steals) / sweeps
	out["core.plan_ms"] = planMS / float64(len(plans))
	out["core.convert_ms"] = ratio(convertMS, float64(alg4))
	caller := run.callerTime()
	out["trace.unattributed_frac"] = 1 - ratio(all.Total.Seconds(), caller.Seconds())
	out["share.kernels+rng+core"] = ratio(all.Total.Seconds(), caller.Seconds())
	out["host.triad_gb_s"] = host.triadGBs
	out["host.peak_gflop_s"] = host.peakGFs
	out["host.h"] = host.h
	return out
}
