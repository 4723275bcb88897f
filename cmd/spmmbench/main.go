// Command spmmbench regenerates the paper's SpMM evaluation: Tables I–VII
// and Figures 4–5. Each experiment prints a table shaped like the paper's;
// absolute times depend on the host, but the qualitative orderings (who
// wins, by roughly what factor) are the reproduction targets recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	spmmbench -all                  # run everything at the default scale
//	spmmbench -table 2 -scale 0.1   # one table, custom matrix scale
//	spmmbench -fig 4                # the Figure 4 density sweep
//	spmmbench -skew -json out.json  # scheduler A/B on skewed inputs
//
// Serving, shard and solve performance is measured by perfbench (its own
// module under perfbench/), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sketchsp/internal/analysis"
	"sketchsp/internal/baseline"
	"sketchsp/internal/bench"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/plot"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

var (
	scale   = flag.Float64("scale", 0.05, "linear matrix scale (1 = paper size; S for the pre-generated baselines needs ~(3n·m·8·scale²) bytes)")
	seed    = flag.Int64("seed", 1, "workload generation seed")
	trials  = flag.Int("trials", 3, "timing trials per cell (best kept)")
	table   = flag.Int("table", 0, "regenerate one table (1–7)")
	fig     = flag.Int("fig", 0, "regenerate one figure (4 or 5)")
	all     = flag.Bool("all", false, "run every table and figure")
	threads = flag.Int("threads", 0, "max worker count for Table VII (0 = 32, the paper's sweep); worker count for -skew (0 = 8)")
	spyDir  = flag.String("spydir", "", "also write Figure 5 spy plots as PGM images into this directory")
	figDir  = flag.String("figdir", "", "also write Figure 4 as an SVG chart into this directory")
	csvOut  = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	skew    = flag.Bool("skew", false, "run the scheduler A/B suite on skewed sparsity (uniform vs AbnormalB/Banded/power-law)")
	jsonOut = flag.String("json", "", "with -skew: also write the records as JSON to this file")
)

func main() {
	flag.Parse()
	if !*all && *table == 0 && *fig == 0 && !*skew {
		flag.Usage()
		os.Exit(2)
	}
	run := func(id int, f func()) {
		if *all || *table == id {
			f()
		}
	}
	run(1, table1)
	run(2, table2)
	run(3, func() { tableSampleBreakdown(3, core.DefaultBlockNAlg3, "Frontera-config") })
	run(4, table4)
	run(5, func() { tableSampleBreakdown(5, core.DefaultBlockNAlg4, "Perlmutter-config") })
	run(6, table6)
	run(7, table7)
	if *all || *fig == 4 {
		fig4()
	}
	if *all || *fig == 5 {
		fig5()
	}
	if *all || *skew {
		if err := skewSuite(); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			os.Exit(1)
		}
	}
}

// skewRecord is one (workload, scheduler) measurement of the skew suite —
// the JSON schema -skew -json writes. Records from the sketch-family A/B
// carry suite="family" plus the dist/sparsity/speedup fields; scheduler
// A/B records leave them zero.
type skewRecord struct {
	Name      string  `json:"name"`
	Scheduler string  `json:"scheduler"`
	NsOp      int64   `json:"ns_op"`
	GFlops    float64 `json:"gflops"`
	Imbalance float64 `json:"imbalance"`
	Suite     string  `json:"suite,omitempty"`
	Dist      string  `json:"dist,omitempty"`
	Sparsity  int     `json:"sparsity,omitempty"`
	Speedup   float64 `json:"speedup_vs_dense,omitempty"`
}

// skewSuite races the PR-1 uniform shared-channel scheduler against the
// nnz-aware weighted work-stealing scheduler on four sparsity shapes. On a
// uniform matrix the two must tie (the weighted partition degenerates to
// the grid); on the skewed shapes the uniform scheduler's measured
// imbalance approaches the worker count while the weighted one stays near
// 1 — which converts into wall-clock speedup on multi-core hosts (see
// EXPERIMENTS.md for the single-core caveat). It fails only when the
// -json file cannot be written.
func skewSuite() error {
	workers := *threads
	if workers == 0 {
		workers = 8
	}
	m := int(400000 * *scale)
	n := int(30000 * *scale)
	nnz := int(6e6 * *scale)
	if m < 2000 {
		m = 2000
	}
	if n < 300 {
		n = 300
	}
	if nnz < 20000 {
		nnz = 20000
	}
	d := (3 * n) / 5
	density := float64(nnz) / (float64(m) * float64(n))
	inputs := []struct {
		name string
		a    *sparse.CSC
	}{
		{"uniform", sparse.RandomUniform(m, n, density, *seed)},
		{"abnormalB", sparse.AbnormalB(m, n, nnz, 2998.0/3000.0, *seed)},
		{"banded", sparse.Banded(m, n, n/50+1, 0.5, *seed)},
		{"powerlaw-1.6", sparse.PowerLaw(m, n, nnz, 1.6, *seed)},
	}
	scheds := []core.Scheduler{core.SchedUniform, core.SchedNoSteal, core.SchedWeighted}

	t := bench.NewTable(fmt.Sprintf(
		"SKEW SUITE — scheduler A/B at %d workers (GOMAXPROCS=%d on this host; wall-clock speedup needs ≥%d cores)",
		workers, runtime.GOMAXPROCS(0), workers),
		"pattern", "scheduler", "time", "GF/s", "imbalance", "pred.imb", "tasks", "steals", "speedup")
	var records []skewRecord
	for _, in := range inputs {
		var base time.Duration
		for _, sc := range scheds {
			tm := mustTime(in.a, d, core.Options{
				Algorithm: core.Alg3, Seed: uint64(*seed), Workers: workers,
				BlockD: d, BlockN: 500, Sched: sc,
			})
			if sc == core.SchedUniform {
				base = tm.Execute
			}
			speedup := "1.00x"
			if base > 0 && tm.Execute > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(base)/float64(tm.Execute))
			}
			t.AddRow(in.name, sc.String(), tm.Execute,
				fmt.Sprintf("%.2f", tm.Stats.GFlops()),
				fmt.Sprintf("%.2f", tm.Stats.Imbalance),
				fmt.Sprintf("%.2f", tm.PlanStats.PredictedImbalance),
				tm.PlanStats.Tasks, tm.Stats.Steals, speedup)
			records = append(records, skewRecord{
				Name:      in.name,
				Scheduler: sc.String(),
				NsOp:      tm.Execute.Nanoseconds(),
				GFlops:    tm.Stats.GFlops(),
				Imbalance: tm.Stats.Imbalance,
			})
		}
	}
	emit(t)
	records = append(records, familySuite(inputs, d, workers)...)
	if *jsonOut == "" {
		return nil
	}
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return fmt.Errorf("encode -json records: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", *jsonOut)
	return nil
}

// familySuite is the sketch-family A/B riding on the skew suite's inputs:
// dense distributions vs SJLT (default s = ⌈√d⌉) vs CountSketch (s = 1) at
// EQUAL sketch dimension d, so the speedup column is purely the scatter
// kernels touching s rows per stored entry instead of d. The wall-time
// ratio tracks d/s minus dispatch overhead — at the suite's d it should
// sit far above the 4x floor recorded in EXPERIMENTS.md.
func familySuite(inputs []struct {
	name string
	a    *sparse.CSC
}, d, workers int) []skewRecord {
	families := []struct {
		label    string
		dist     rng.Distribution
		sparsity int
	}{
		{"dense-uniform", rng.Uniform11, 0},
		{"dense-rademacher", rng.Rademacher, 0},
		{"sjlt-default-s", rng.SJLT, 0},
		{"countsketch", rng.CountSketch, 0},
	}
	t := bench.NewTable(fmt.Sprintf(
		"SKETCH FAMILY A/B — dense vs sparse sketches at equal d=%d, %d workers", d, workers),
		"pattern", "family", "s", "time", "GF/s", "speedup-vs-dense")
	var records []skewRecord
	for _, in := range inputs {
		var base time.Duration
		for _, fam := range families {
			tm := mustTime(in.a, d, core.Options{
				Algorithm: core.Alg3, Dist: fam.dist, Sparsity: fam.sparsity,
				Seed: uint64(*seed), Workers: workers, BlockD: d, BlockN: 500,
			})
			if fam.dist == rng.Uniform11 {
				base = tm.Execute
			}
			speedup := 1.0
			if base > 0 && tm.Execute > 0 {
				speedup = float64(base) / float64(tm.Execute)
			}
			t.AddRow(in.name, fam.label, tm.PlanStats.Sparsity, tm.Execute,
				fmt.Sprintf("%.2f", tm.Stats.GFlops()),
				fmt.Sprintf("%.2fx", speedup))
			records = append(records, skewRecord{
				Name:      in.name,
				Scheduler: core.SchedWeighted.String(),
				NsOp:      tm.Execute.Nanoseconds(),
				GFlops:    tm.Stats.GFlops(),
				Imbalance: tm.Stats.Imbalance,
				Suite:     "family",
				Dist:      fam.dist.String(),
				Sparsity:  tm.PlanStats.Sparsity,
				Speedup:   speedup,
			})
		}
	}
	emit(t)
	return records
}

func workloads() []bench.SpMMWorkload {
	return bench.SpMMWorkloads(*scale, *seed)
}

// table1 prints the properties of the generated stand-ins next to the
// published Table I values.
func table1() {
	t := bench.NewTable("TABLE I — SpMM test data (generated stand-ins at scale "+
		fmt.Sprint(*scale)+"; paper values in parentheses)",
		"Matrices", "d", "m", "n", "nnz(A)", "density", "paper (d, m, n, nnz)")
	for _, w := range workloads() {
		sp := w.Spec
		t.AddRow(w.Name, w.D, w.A.M, w.A.N, w.A.NNZ(),
			fmt.Sprintf("%.2e", w.A.Density()),
			fmt.Sprintf("(%d, %d, %d, %d)", 3*sp.N, sp.M, sp.N, sp.NNZ))
	}
	emit(t)
}

// table2 compares Algorithm 3 against the pre-generated-S library baselines
// (sequential, b_n = 500, b_d = 3000).
func table2() {
	t := bench.NewTable("TABLE II — Algorithm 3 vs library-style SpMM (seconds, sequential)\n"+
		"(the paper's (-1,1) used 32-bit values; our scaled-int column is the closest equivalent)",
		"Matrices", "MKL-style", "Eigen-style", "Julia-style", "Alg3 (-1,1)", "Alg3 (scaled)", "Alg3 (±1)")
	for _, w := range workloads() {
		sk := mustSketcher(w.D, core.Options{
			Seed: uint64(*seed), Workers: 1,
			BlockD: core.DefaultBlockD, BlockN: core.DefaultBlockNAlg3,
		})
		// The baselines read a pre-generated S; generation time is not
		// charged (as in the paper, which favours the baselines).
		s := sk.MaterializeS(w.A.M)
		at := w.A.Transpose().ToCSR()
		out := dense.NewMatrix(w.D, w.A.N)
		tMKL := bench.BestOf(*trials, func() { baseline.MKLStyle(s, at, out) })
		tEigen := bench.BestOf(*trials, func() { baseline.EigenStyle(s, w.A, out) })
		tJulia := bench.BestOf(*trials, func() { baseline.JuliaStyle(s, w.A, out) })
		s = nil // release S before timing the on-the-fly kernels
		at = nil
		runtime.GC()

		t3u := timeSketch(w, core.Alg3, rng.Uniform11, core.DefaultBlockNAlg3)
		t3s := timeSketch(w, core.Alg3, rng.ScaledInt, core.DefaultBlockNAlg3)
		t3p := timeSketch(w, core.Alg3, rng.Rademacher, core.DefaultBlockNAlg3)
		t.AddRow(w.Name, tMKL, tEigen, tJulia, t3u, t3s, t3p)
	}
	emit(t)
}

// tableSampleBreakdown is Tables III and V: total vs sample time for both
// algorithms under one blocking config. Times are steady-state executes of
// a reused plan, so Alg4's conversion is excluded from both columns.
func tableSampleBreakdown(id, bn int, label string) {
	t := bench.NewTable(fmt.Sprintf("TABLE %s — sample vs total time, %s (b_n=%d, b_d=%d)",
		roman(id), label, bn, core.DefaultBlockD),
		"Matrices", "Algorithm", "total time", "sample time")
	for _, alg := range []core.Algorithm{core.Alg3, core.Alg4} {
		name := "Algorithm 3"
		if alg == core.Alg4 {
			name = "Algorithm 4"
		}
		for _, w := range workloads() {
			tm := mustTime(w.A, w.D, core.Options{
				Algorithm: alg, Seed: uint64(*seed), Workers: 1, Timed: true,
				BlockD: core.DefaultBlockD, BlockN: bn,
			})
			t.AddRow(w.Name, name, tm.Stats.Total, tm.Stats.SampleTime)
		}
	}
	emit(t)
}

// table4 is the Perlmutter-style comparison: baselines vs Algorithm 4 with
// the format-conversion time listed separately (b_n = 1200).
func table4() {
	t := bench.NewTable("TABLE IV — Algorithm 4 vs libraries (seconds, sequential, b_n=1200)",
		"Matrices", "Julia-style", "Eigen-style", "Alg4 (-1,1)", "Alg4 (±1)", "format conversion")
	for _, w := range workloads() {
		sk := mustSketcher(w.D, core.Options{
			Seed: uint64(*seed), Workers: 1,
			BlockD: core.DefaultBlockD, BlockN: core.DefaultBlockNAlg4,
		})
		s := sk.MaterializeS(w.A.M)
		out := dense.NewMatrix(w.D, w.A.N)
		tJulia := bench.BestOf(*trials, func() { baseline.JuliaStyle(s, w.A, out) })
		tEigen := bench.BestOf(*trials, func() { baseline.EigenStyle(s, w.A, out) })
		s = nil
		runtime.GC()

		// Conversion cost falls out of the plan stats: it is charged once
		// at plan time, exactly the quantity Table IV lists separately.
		tm4u := mustTime(w.A, w.D, alg4Opts(rng.Uniform11))
		tm4p := mustTime(w.A, w.D, alg4Opts(rng.Rademacher))
		t.AddRow(w.Name, tJulia, tEigen, tm4u.Execute, tm4p.Execute, tm4u.Convert)
	}
	emit(t)
}

// table6 races the two algorithms on the exotic Table VI patterns.
func table6() {
	t := bench.NewTable("TABLE VI — exotic sparsity patterns (seconds)",
		"Problem", "Algorithm", "conversion time", "compute time")
	for _, w := range bench.AbnormalWorkloads(*scale*4, *seed) {
		t3 := timeSketch(w, core.Alg3, rng.Uniform11, core.DefaultBlockNAlg3)
		t.AddRow(w.Name, "Algorithm 3", "N/A", t3)

		tm4 := mustTime(w.A, w.D, alg4Opts(rng.Uniform11))
		t.AddRow(w.Name, "Algorithm 4", tm4.Convert, tm4.Execute)
	}
	emit(t)
	// The AlgAuto inspector's verdicts under this host's measured h
	// (§III-B cost model; see EXPERIMENTS.md).
	h := analysis.EstimateH(1<<22, 1)
	fmt.Printf("AlgAuto inspector picks at measured h = %.2f:\n", h)
	for _, w := range bench.AbnormalWorkloads(*scale*4, *seed) {
		pick := core.ChooseAlgorithm(w.A, w.D, core.Options{}, h, 0)
		fmt.Printf("  %-12s -> %v\n", w.Name, pick)
	}
	fmt.Println()
}

// table7 is the parallel-scaling sweep with the paper's two blocking setups
// on the shar_te2-b2 stand-in. (On a single-core host the sweep runs but
// cannot show speedup; see EXPERIMENTS.md.)
func table7() {
	maxT := *threads
	if maxT == 0 {
		maxT = 32
	}
	ws := workloads()
	w := ws[2] // shar_te2-b2
	setups := []struct {
		name   string
		bd, bn int
	}{
		{"setup1", core.DefaultBlockD, core.DefaultBlockNAlg3},
		{"setup2", w.D, 100}, // taller blocks, narrower slabs: RNG offload
	}
	t := bench.NewTable(fmt.Sprintf(
		"TABLE VII — parallel scaling on %s (GOMAXPROCS=%d on this host)",
		w.Name, runtime.GOMAXPROCS(0)),
		"threads",
		"Alg4/up1 time", "Alg4/up1 GF", "Alg3/up1 time", "Alg3/up1 GF",
		"Alg4/up2 time", "Alg4/up2 GF", "Alg3/up2 time", "Alg3/up2 GF")
	for th := 1; th <= maxT; th *= 2 {
		row := []interface{}{th}
		for _, setup := range setups {
			for _, alg := range []core.Algorithm{core.Alg4, core.Alg3} {
				tm := mustTime(w.A, w.D, core.Options{
					Algorithm: alg, Seed: uint64(*seed),
					Workers: th, BlockD: setup.bd, BlockN: setup.bn,
				})
				row = append(row, tm.Stats.Total, tm.Stats.GFlops())
			}
		}
		// Column order per setup: Alg4 then Alg3, matching the paper.
		t.AddRow(row...)
	}
	emit(t)
}

// fig4 sweeps nonzero density and prints percent-of-peak for the five
// S-generation methods, Algorithm 4 (the paper's Perlmutter experiment).
func fig4() {
	peak := measurePeak()
	fmt.Printf("FIGURE 4 — %% of peak vs density (Algorithm 4; measured peak %.2f GF/s)\n", peak)
	names := []string{"gaussian-fly", "pregen-mem", "(-1,1)-fly", "scaling-trick", "pm1-fly", "junk-bound"}
	t := bench.NewTable("", append([]string{"density"}, names...)...)
	m := int(20000 * *scale * 4)
	n := int(4000 * *scale * 4)
	if m < 2000 {
		m = 2000
	}
	if n < 400 {
		n = 400
	}
	d := 3 * n
	densities := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}
	series := make([]plot.Series, len(names))
	for i := range series {
		series[i].Name = names[i]
	}
	for _, density := range densities {
		a := sparse.RandomUniform(m, n, density, *seed)
		flops := 2 * float64(d) * float64(a.NNZ())
		vals := []float64{
			pctVal(flops, timeSketchD(a, d, rng.Gaussian), peak),
			pctVal(flops, timePregen(a, d), peak),
			pctVal(flops, timeSketchD(a, d, rng.Uniform11), peak),
			pctVal(flops, timeSketchD(a, d, rng.ScaledInt), peak),
			pctVal(flops, timeSketchD(a, d, rng.Rademacher), peak),
			// "junk" upper bound (§V-A): simple addition, no RNG.
			pctVal(flops, timeSketchD(a, d, rng.Junk), peak),
		}
		row := []interface{}{fmt.Sprintf("%.0e", density)}
		for i, v := range vals {
			row = append(row, fmt.Sprintf("%.1f%%", v))
			series[i].X = append(series[i].X, density)
			series[i].Y = append(series[i].Y, v)
		}
		t.AddRow(row...)
	}
	emit(t)
	if *figDir != "" {
		path := *figDir + "/fig4.svg"
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			return
		}
		chart := plot.Chart{
			Title:  "Figure 4 — percent of peak vs density (Algorithm 4)",
			XLabel: "nonzero density", YLabel: "% of peak", LogX: true,
			Series: series,
		}
		if err := chart.WriteSVG(f); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
		}
		f.Close()
		fmt.Printf("(wrote %s)\n", path)
	}
}

// fig5 prints ASCII spy plots of three stand-ins (the paper's Figure 5).
func fig5() {
	ws := workloads()
	for _, idx := range []int{2, 3, 4} { // shar_te2-b2, mesh_deform, cis-n4c6-b4
		w := ws[idx]
		fmt.Printf("FIGURE 5 — sparsity pattern of %s (%dx%d, nnz=%d)\n",
			w.Name, w.A.M, w.A.N, w.A.NNZ())
		fmt.Println(sparse.Spy(w.A, 20, 60))
		if *spyDir != "" {
			path := *spyDir + "/" + w.Name + ".pgm"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spmmbench:", err)
				continue
			}
			if err := sparse.WriteSpyPGM(f, w.A, 400, 400); err != nil {
				fmt.Fprintln(os.Stderr, "spmmbench:", err)
			}
			f.Close()
			fmt.Printf("(wrote %s)\n", path)
		}
	}
}

// ---- helpers ----

// emit prints a table in the selected format.
func emit(t *bench.Table) {
	if *csvOut {
		fmt.Println("# " + t.Title)
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}

func mustSketcher(d int, opts core.Options) *core.Sketcher {
	sk, err := core.NewSketcher(d, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	return sk
}

// mustTime runs bench.TimeSketch (plan once, best-of executes) or exits.
func mustTime(a *sparse.CSC, d int, opts core.Options) bench.SketchTiming {
	tm, err := bench.TimeSketch(a, d, opts, *trials)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	return tm
}

// alg4Opts is the standard Table IV/VI Algorithm 4 configuration.
func alg4Opts(dist rng.Distribution) core.Options {
	return core.Options{
		Algorithm: core.Alg4, Dist: dist, Seed: uint64(*seed), Workers: 1,
		BlockD: core.DefaultBlockD, BlockN: core.DefaultBlockNAlg4,
	}
}

func timeSketch(w bench.SpMMWorkload, alg core.Algorithm, dist rng.Distribution, bn int) time.Duration {
	tm := mustTime(w.A, w.D, core.Options{
		Algorithm: alg, Dist: dist, Seed: uint64(*seed), Workers: 1,
		BlockD: core.DefaultBlockD, BlockN: bn,
	})
	return tm.Execute
}

// timeSketchD times an Algorithm 4 steady-state execute (the plan absorbs
// the conversion, matching the figure's compute-only series).
func timeSketchD(a *sparse.CSC, d int, dist rng.Distribution) time.Duration {
	return mustTime(a, d, alg4Opts(dist)).Execute
}

func timePregen(a *sparse.CSC, d int) time.Duration {
	sk := mustSketcher(d, core.Options{Seed: uint64(*seed), Workers: 1})
	s := sk.MaterializeS(a.M)
	out := dense.NewMatrix(d, a.N)
	dt := bench.BestOf(*trials, func() { baseline.EigenStyle(s, a, out) })
	runtime.GC()
	return dt
}

func pctVal(flops float64, dt time.Duration, peakGF float64) float64 {
	if dt <= 0 || peakGF <= 0 {
		return 0
	}
	gf := flops / dt.Seconds() / 1e9
	return 100 * gf / peakGF
}

func measurePeak() float64 {
	res := analysis.RunStream(1<<20, 1)
	return res.PeakGFs
}

func roman(n int) string {
	switch n {
	case 3:
		return "III"
	case 5:
		return "V"
	default:
		return fmt.Sprint(n)
	}
}
