package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"sketchsp/internal/dense"
)

// instance is one workload after set-up: inputs generated, servers up,
// caches warm and reference digests computed.
type instance struct {
	callers int
	// classes names the operation classes answer.class indexes.
	classes []string
	// prepare draws caller c's next operation from its seeded sequence and
	// builds its inputs; do performs it. The closed loop times only do.
	prepare func(c int) any
	do      func(ctx context.Context, op any) (answer, error)
	// check verifies an answer against its reference, after the latency
	// has been taken.
	check func(a answer) error
	// finish runs after the timed phase and returns how many answers failed
	// a verification that could not run inside the loop (nil: none).
	finish func() (int, error)
	// mark snapshots the layer counters just before a traced timed phase;
	// layers turns the deltas since into per-layer metrics. Both are only
	// called on traced instances.
	mark   func()
	layers func(run *runResult) map[string]float64
	close  func()
}

// answer is what one operation returned, with enough to verify it.
type answer struct {
	class int
	key   int         // reference index within the workload
	data  [][]float64 // the values the program returned
	op    any         // the operation, for checks that need its inputs
}

// opRecord is one timed operation.
type opRecord struct {
	lat   time.Duration
	class int
	ok    bool
}

// runResult is one timed phase of the closed loop.
type runResult struct {
	callers   int
	classes   []string
	recs      [][]opRecord // per caller, in issue order
	wall      time.Duration
	cpu       time.Duration // process user+sys over the phase
	attempted int
	failed    int
	allocB    uint64  // heap bytes allocated over the phase
	gcCPU     float64 // GC CPU seconds over the phase
}

func (r *runResult) ok() int { return r.attempted - r.failed }

// throughput is verified operations per second of wall time.
func (r *runResult) throughput() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.ok()) / r.wall.Seconds()
}

// latencies returns the sorted latencies of the verified operations of one
// class (class < 0: all classes).
func (r *runResult) latencies(class int) []time.Duration {
	var out []time.Duration
	for _, rs := range r.recs {
		for _, rec := range rs {
			if rec.ok && (class < 0 || rec.class == class) {
				out = append(out, rec.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// callerTime is the summed caller-side latency of every operation.
func (r *runResult) callerTime() time.Duration {
	var t time.Duration
	for _, rs := range r.recs {
		for _, rec := range rs {
			t += rec.lat
		}
	}
	return t
}

func (r *runResult) allocMBPerOp() float64 {
	return float64(r.allocB) / (1 << 20) / float64(max(r.attempted, 1))
}

func (r *runResult) gcCPUFrac() float64 {
	if r.cpu <= 0 {
		return 0
	}
	return r.gcCPU / r.cpu.Seconds()
}

// closedLoop runs inst's callers until dur has passed: each caller issues
// its next operation only after the previous one returned. Operations
// started before the deadline run to completion.
func closedLoop(inst *instance, dur time.Duration) *runResult {
	run := &runResult{callers: inst.callers, classes: inst.classes, recs: make([][]opRecord, inst.callers)}
	ctx := context.Background()
	cpu0 := processCPU()
	ms0 := readRuntimeMetrics()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < inst.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op := inst.prepare(c)
				t0 := time.Now()
				a, err := inst.do(ctx, op)
				lat := time.Since(t0)
				if err == nil {
					err = inst.check(a)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: caller %d op %d: %v\n", c, i, err)
				}
				run.recs[c] = append(run.recs[c], opRecord{lat: lat, class: a.class, ok: err == nil})
			}
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.cpu = processCPU() - cpu0
	ms1 := readRuntimeMetrics()
	run.allocB = ms1.allocB - ms0.allocB
	run.gcCPU = ms1.gcCPU - ms0.gcCPU
	for _, rs := range run.recs {
		run.attempted += len(rs)
		for _, rec := range rs {
			if !rec.ok {
				run.failed++
			}
		}
	}
	if inst.finish != nil {
		bad, err := inst.finish()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: verification:", err)
			bad = run.ok()
		}
		run.failed += bad
	}
	return run
}

// warmUp runs n verified operations per caller from the start of each
// caller's sequence, so caches, worker pools and the heap reach their
// steady state before timing. Any failure fails the set-up.
func warmUp(inst *instance, n int) error {
	errs := make([]error, inst.callers)
	var wg sync.WaitGroup
	for c := 0; c < inst.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < n && errs[c] == nil; i++ {
				a, err := inst.do(ctx, inst.prepare(c))
				if err == nil {
					err = inst.check(a)
				}
				errs[c] = err
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if inst.finish != nil {
		bad, err := inst.finish()
		if err == nil && bad > 0 {
			err = fmt.Errorf("%d warm-up answers differ from the in-process reference", bad)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// digestSeed is fixed for the process: digests are only compared within
// one run.
var digestSeed = maphash.MakeSeed()

// digest hashes the bit patterns of vs, so two answers digest equal only
// when every float is bit-identical.
func digest(vs ...[]float64) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	for _, v := range vs {
		if len(v) > 0 {
			h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8))
		}
		h.WriteByte(0)
	}
	return h.Sum64()
}

// values returns m's entries column by column, without the stride padding.
func values(m *dense.Matrix) []float64 {
	if m.Stride == m.Rows {
		return m.Data[:m.Rows*m.Cols]
	}
	out := make([]float64, 0, m.Rows*m.Cols)
	for j := 0; j < m.Cols; j++ {
		out = append(out, m.Col(j)...)
	}
	return out
}

// checkDigests is the check of workloads whose references are digests
// indexed by answer.key.
func checkDigests(what string, want [][]uint64) func(a answer) error {
	return func(a answer) error {
		ref := want[a.key]
		ok := len(ref) == len(a.data)
		for i := 0; ok && i < len(ref); i++ {
			ok = digest(a.data[i]) == ref[i]
		}
		if !ok {
			return fmt.Errorf("%s %d: answer differs from the in-process reference", what, a.key)
		}
		return nil
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	allocB uint64
	gcCPU  float64
}

func readRuntimeMetrics() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocB = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}

// peakRSSMB is the process's VmHWM. Servers and workers run in-process, so
// it is the whole system's peak resident memory.
func peakRSSMB() float64 {
	kb := procStatusField("VmHWM:")
	return float64(kb) / 1024
}

func procStatusField(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field) {
			fs := strings.Fields(line[len(field):])
			if len(fs) > 0 {
				v, _ := strconv.ParseInt(fs[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
