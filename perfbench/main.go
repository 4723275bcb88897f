// Command perfbench is the repository benchmark. It runs one of four
// in-process workloads (kernel, serve, shard, solve) as a closed loop,
// verifies every answer against an in-process reference, and prints the
// end-to-end metrics as one JSON line. With -trace 1 it instead prints the
// per-layer metrics, measured with Options.Timed, benchmark-side spans
// around the HTTP and backend boundaries, and before/after deltas of the
// program's own obs registries.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records why each workload exists, which
// layers it loads and bypasses, and which end-to-end metric each per-layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart approximates process start for the "first timed operation"
// record printed beside setup_s.
var processStart = time.Now()

// setupRepeats is how many times an untraced run builds its workload; the
// median of these set-up times is setup_s. The last build is the one timed.
const setupRepeats = 3

// workload is one named benchmark input set.
type workload struct {
	name  string
	setup func(cfg setupConfig) (*instance, error)
}

// setupConfig is everything a workload's set-up may depend on: the seed
// and whether this is a traced run.
type setupConfig struct {
	seed   int64
	traced bool
}

var workloads = []workload{
	{"kernel", setupKernel},
	{"serve", setupServe},
	{"shard", setupShard},
	{"solve", setupSolve},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kernel, serve, shard or solve")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload kernel|serve|shard|solve --seed N --seconds S --trace 0|1 (got workload %q)\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(os.Stdout, w, *seed, dur)
	} else {
		res, err = runUntraced(os.Stdout, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runUntraced builds the workload setupRepeats times, times the last
// build's closed loop and returns the end-to-end metrics.
func runUntraced(out io.Writer, w workload, seed int64, dur time.Duration) (result, error) {
	printHost(out)
	cfg := setupConfig{seed: seed}
	setups := make([]float64, setupRepeats)
	var inst *instance
	for k := range setups {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups[k] = time.Since(t0).Seconds()
	}
	defer inst.close()
	runtime.GC()
	fmt.Fprintf(out, "# %s: set-up %v s (median %.4f s), first timed operation %.3f s after process start\n",
		w.name, setups, median(setups), time.Since(processStart).Seconds())

	run := closedLoop(inst, dur)
	em := endToEnd(run)
	em["setup_s"] = metric{median(setups), "s"}
	printRun(out, w.name, run)
	if n := len(run.latencies(-1)); n < 200 {
		fmt.Fprintf(out, "# %s: WARNING %d operations, fewer than 200; latency_p95_ms has under 10 samples beyond it\n", w.name, n)
	}
	return result{
		Correct:   run.failed == 0 && run.attempted > 0,
		Attempted: run.attempted,
		Failed:    run.failed,
		Metrics:   em,
	}, nil
}

// runTraced prints the per-layer table. Every per-layer metric comes from
// the workload that loads its layer (kernel: kernels, rng, core; serve:
// client, server, wire, service, store; shard: shard; solve: solver,
// jobs), so each traced run measures all four; the named workload runs
// longest and also supplies the process.* and trace.* metrics, including
// the untraced baseline that trace.overhead_frac compares against.
func runTraced(out io.Writer, w workload, seed int64, dur time.Duration) (result, error) {
	printHost(out)
	cfg := setupConfig{seed: seed}

	base, err := w.setup(cfg)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	runtime.GC()
	baseRun := closedLoop(base, dur/3)
	base.close()
	runtime.GC()

	layers := map[string]float64{}
	res := result{Metrics: map[string]metric{}}
	add := func(run *runResult) {
		res.Attempted += run.attempted
		res.Failed += run.failed
	}
	add(baseRun)

	cfg.traced = true
	order := []workload{w}
	for _, o := range workloads {
		if o.name != w.name {
			order = append(order, o)
		}
	}
	for k, o := range order {
		d := dur / 9
		if k == 0 {
			d = dur / 3
		}
		inst, err := o.setup(cfg)
		if err != nil {
			return result{}, fmt.Errorf("%s traced set-up: %w", o.name, err)
		}
		runtime.GC()
		inst.mark()
		run := closedLoop(inst, d)
		lm := inst.layers(run)
		inst.close()
		runtime.GC()
		add(run)
		printRun(out, o.name, run)
		printShares(out, o.name, lm)
		for _, m := range perLayer {
			if m.owner == o.name {
				layers[m.name] = lm[m.name]
			}
		}
		if k == 0 {
			layers["process.alloc_mb_per_op"] = run.allocMBPerOp()
			layers["process.gc_cpu_frac"] = run.gcCPUFrac()
			layers["trace.overhead_frac"] = 1 - run.throughput()/baseRun.throughput()
			layers["trace.unattributed_frac"] = lm["trace.unattributed_frac"]
		}
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// endToEnd derives the seven end-to-end metrics (setup_s is added by the
// caller) from one timed phase.
func endToEnd(run *runResult) map[string]metric {
	lat := run.latencies(-1)
	return map[string]metric{
		"throughput_ops_s": {run.throughput(), "1/s"},
		"latency_p50_ms":   {ms(quantile(lat, 0.50)), "ms"},
		"latency_p95_ms":   {ms(quantile(lat, 0.95)), "ms"},
		"cpu_ms_per_op":    {ms(run.cpu) / float64(max(run.ok(), 1)), "ms"},
		"success_ratio":    {float64(run.ok()) / float64(max(run.attempted, 1)), "ratio"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

func printRun(out io.Writer, name string, run *runResult) {
	lat := run.latencies(-1)
	beyond := len(lat) - int(0.95*float64(len(lat)))
	fmt.Fprintf(out, "# %s: %d callers, %d ops in %.3f s (%d failed), p95 over %d samples with %d beyond it\n",
		name, run.callers, run.attempted, run.wall.Seconds(), run.failed, len(lat), beyond)
	if len(run.classes) < 2 {
		return
	}
	for c, cn := range run.classes {
		cl := run.latencies(c)
		fmt.Fprintf(out, "# %s: class %s share %.3f p10 %.3f p50 %.3f p90 %.3f p99 %.3f ms\n", name, cn,
			float64(len(cl))/float64(max(len(lat), 1)), ms(quantile(cl, 0.1)), ms(quantile(cl, 0.5)),
			ms(quantile(cl, 0.9)), ms(quantile(cl, 0.99)))
	}
}

func printHost(out io.Writer) {
	fmt.Fprintf(out, "# host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
