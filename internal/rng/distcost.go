package rng

import (
	"runtime"
	"sync"
	"time"
)

// distCostTable holds the measured per-sample cost of each distribution
// relative to Uniform11 (≡ 1 exactly). Populated once per process by
// measureDistCostTable.
var (
	distCostOnce  sync.Once
	distCostTable [CountSketch + 1]float64
)

// DistCost returns the relative per-sample generation cost of dist, with
// Uniform11 normalised to exactly 1. The §III-B cost model multiplies its
// h parameter by this factor so that cheap sketches (fused ±1 Rademacher,
// the scaling trick) are charged less recomputation than expensive ones
// (ziggurat Gaussian). For the sparse family the unit is one *nonzero*:
// kernels draw s words per column, so the model charges s·DistCost(SJLT)
// per column against d·DistCost(dense) for a dense one. Costs are measured
// once per process on BatchXoshiro through the batched draws the kernels
// use — Rademacher through RawColumns (1 bit/sample), the sparse family
// through SJLTColumns in the kernels' chunks, the rest through FillColumns in
// groups of MaxColumns columns — and clamped to
// [1/64, 64] so a noisy measurement can never flip the model by orders of
// magnitude. Unknown distributions cost 1.
//
// Measurement discipline and variance bounds: the whole measurement runs
// on one OS-pinned goroutine (runtime.LockOSThread) with a fixed iteration
// budget (distCostSamples samples × distCostReps best-of repetitions,
// ~1 ms total), so neither GOMAXPROCS nor concurrent load changes how
// much work is timed. Best-of-reps discards scheduler preemptions and
// one-off cache misses; on an otherwise-busy machine the surviving jitter
// is the timer granularity over a ≳2 µs window, i.e. relative costs
// reproduce within ±25% run to run (asserted by TestDistCostStability).
// The clamp bounds the damage of a pathological measurement outright.
func DistCost(dist Distribution) float64 {
	distCostOnce.Do(func() { distCostTable = measureDistCostTable() })
	if dist < 0 || int(dist) >= len(distCostTable) {
		return 1
	}
	return distCostTable[dist]
}

const (
	distCostSamples = 4096 // samples per timing pass, big enough to amortise call overhead
	distCostReps    = 8    // best-of repetitions per distribution
)

// measureDistCostTable runs the timing passes and returns the full relative
// cost table. Exposed (package-internally) so the stability regression test
// can invoke the measurement twice in one process; DistCost memoises one
// call for everyone else.
func measureDistCostTable() [CountSketch + 1]float64 {
	// Pin the measuring goroutine to its OS thread for the duration so the
	// scheduler cannot migrate it mid-pass; with best-of timing this makes
	// the measurement independent of GOMAXPROCS and background load.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	const n = distCostSamples
	const reps = distCostReps
	const seed = 0x9e3779b97f4a7c15
	dst := make([]float64, n)
	words := make([]uint64, n)
	cols := make([]int, n)
	for j := range cols {
		cols[j] = j
	}

	// best returns the fastest of reps timed calls of pass(r), after one
	// call that warms buffers and code paths.
	best := func(pass func(r uint64)) float64 {
		pass(0)
		b := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			pass(uint64(r))
			if e := time.Since(t0); e < b {
				b = e
			}
		}
		return float64(b)
	}
	// A dense pass draws n samples as one group of MaxColumns columns.
	timeFill := func(d Distribution) float64 {
		s := NewSampler(NewBatchXoshiro(seed), d)
		return best(func(r uint64) { s.FillColumns(r, cols[:MaxColumns], dst) })
	}
	// Rademacher's kernel path never materialises ±1 values: it consumes
	// sign bits straight from RawColumns, so measure that.
	timeRademacher := func() float64 {
		s := NewSampler(NewBatchXoshiro(seed), Rademacher)
		return best(func(r uint64) { s.RawColumns(r, cols[:MaxColumns], n/MaxColumns, words) })
	}
	// The sparse family's kernel path draws the s-word columns of a slab
	// through SJLTColumns, ChunkColumns(s) at a time into the same
	// scratch, and decodes each word as it scatters, so the decode is
	// compute, not generation. Time n nonzeros' worth of whole columns in
	// those chunks so the per-nonzero unit includes the per-column seeding
	// and the per-call cost the kernels pay.
	timeSJLT := func(sp int) float64 {
		s := NewSampler(NewBatchXoshiro(seed), SJLT)
		ncols, chunk := n/sp, ChunkColumns(sp)
		t := best(func(uint64) {
			for c0 := 0; c0 < ncols; c0 += chunk {
				s.SJLTColumns(cols[c0:min(c0+chunk, ncols)], sp, words)
			}
		})
		// Normalise to the same n-sample window as the dense passes.
		return t * float64(n) / float64(ncols*sp)
	}

	base := timeFill(Uniform11)
	if base <= 0 {
		base = 1 // timer too coarse: degrade to all-equal costs
	}
	clamp := func(c float64) float64 {
		if c < 1.0/64 {
			return 1.0 / 64
		}
		if c > 64 {
			return 64
		}
		return c
	}
	var t [CountSketch + 1]float64
	t[Uniform11] = 1
	t[Rademacher] = clamp(timeRademacher() / base)
	t[Gaussian] = clamp(timeFill(Gaussian) / base)
	t[ScaledInt] = clamp(timeFill(ScaledInt) / base)
	t[Junk] = clamp(timeFill(Junk) / base)
	t[SJLT] = clamp(timeSJLT(32) / base)
	t[CountSketch] = clamp(timeSJLT(1) / base)
	return t
}
