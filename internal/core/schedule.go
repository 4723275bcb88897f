package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sketchsp/internal/analysis"
	"sketchsp/internal/cacheline"
	"sketchsp/internal/sparse"
)

// This file makes the plan nnz-aware. Uniform (b_d, b_n) blocking assigns
// every outer-block cell the same nominal cost, but the real cost of a cell
// is proportional to nnz(slab)·d1 for both kernels: Algorithm 3 generates
// d1 samples per stored entry of the slab, and Algorithm 4's rank-1 update
// stream is likewise entry-proportional. On skewed inputs (Abnormal_B,
// power-law column degrees) a uniform grid therefore hands one worker almost
// all the work. The planner counters this twice over:
//
//  1. Partition: the uniform column grid is refined at plan time — slabs far
//     above the nnz target split at nnz-balanced column boundaries, runs of
//     near-empty slabs fuse — aiming at ~schedTargetTasksPerWorker weighted
//     tasks per worker (colPartition).
//  2. Execution: tasks are prepacked into per-worker queues with the LPT
//     rule (analysis.LPTAssign) and idle workers steal from the heaviest
//     remaining victim (sched).
//
// Neither mechanism can change the sketch bits. Slab boundaries always fall
// on whole columns, every kernel call re-anchors the RNG at its own
// (block-row, sparse-row) checkpoint, and each Â column accumulates its
// contributions in ascending row order within exactly one task — so the
// floating-point sum order per output element is invariant under any
// repartition and any task-to-worker mapping. Splitting an Alg4 slab only
// increases the sample count (the same values are regenerated more often),
// never the values.

// Scheduler selects how a Plan maps block tasks onto workers.
type Scheduler int

const (
	// SchedWeighted is the default: nnz-weighted slab repartition, LPT
	// prepacked per-worker queues, and work stealing from the heaviest
	// remaining victim.
	SchedWeighted Scheduler = iota
	// SchedNoSteal keeps the weighted partition and LPT prepacking but
	// disables stealing — each worker runs exactly its own queue. Isolates
	// how much of the win comes from the static partition alone.
	SchedNoSteal
	// SchedUniform reproduces the PR-1 executor exactly: uniform b_n grid,
	// single shared task channel, no weights. Kept as the A/B baseline for
	// the skew benchmarks.
	SchedUniform
)

// String implements fmt.Stringer for Scheduler.
func (s Scheduler) String() string {
	switch s {
	case SchedWeighted:
		return "weighted-steal"
	case SchedNoSteal:
		return "weighted-nosteal"
	case SchedUniform:
		return "uniform-chan"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// schedTargetTasksPerWorker is how many weighted tasks per worker the
// partitioner aims for: enough surplus that LPT + stealing can smooth an
// unlucky split, few enough that per-task overhead stays negligible.
const schedTargetTasksPerWorker = 6

// targetSlabCount converts the per-worker task target into a column-slab
// target, accounting for the fact that every slab already yields one task
// per block row.
func targetSlabCount(workers, blockRows, n int) int {
	if n < 1 {
		return 1
	}
	if blockRows < 1 {
		blockRows = 1
	}
	t := (schedTargetTasksPerWorker*workers + blockRows - 1) / blockRows
	if t < 1 {
		t = 1
	}
	if t > n {
		t = n
	}
	return t
}

// colPartition refines the uniform width-bn column grid of a into an
// nnz-aware partition with roughly targetSlabs slabs. Heavy slabs (more
// than twice the ideal nnz share) are split at nnz-balanced column
// boundaries; runs of light adjacent slabs are fused while their combined
// nnz stays under the fuse cap. The cap is min(ideal share, mean grid-slab
// nnz) so that fusing never produces a slab heavier than an average uniform
// slab — on a uniform matrix the partition degenerates to the original
// cache-motivated grid. Splits are capped at column granularity: a single
// all-heavy column cannot be subdivided (stealing has to absorb that case).
func colPartition(a *sparse.CSC, bn, targetSlabs int) (colStart []int, splits, fuses int) {
	grid := sparse.UniformColSplit(a.N, bn)
	nSlabs0 := len(grid) - 1
	total := int64(a.NNZ())
	if nSlabs0 <= 0 || total == 0 || targetSlabs < 1 {
		return grid, 0, 0
	}
	ideal := total / int64(targetSlabs)
	if ideal < 1 {
		ideal = 1
	}
	gridMean := total / int64(nSlabs0)
	if gridMean < 1 {
		gridMean = 1
	}
	fuseCap := ideal
	if gridMean < fuseCap {
		fuseCap = gridMean
	}

	colStart = make([]int, 1, nSlabs0+1)
	for k := 0; k < nSlabs0; k++ {
		j0, j1 := grid[k], grid[k+1]
		w := int64(a.SlabNNZ(j0, j1))

		if w > 2*ideal && j1-j0 > 1 {
			// Split into ~w/ideal pieces at nnz-balanced column cuts.
			pieces := int((w + ideal - 1) / ideal)
			if pieces > j1-j0 {
				pieces = j1 - j0
			}
			splits++
			base := int64(a.ColPtr[j0])
			cut := j0
			for pc := 1; pc < pieces; pc++ {
				// First column index whose cumulative nnz passes the
				// pc-th share boundary.
				want := base + w*int64(pc)/int64(pieces)
				lo := sort.Search(j1-cut-1, func(x int) bool {
					return int64(a.ColPtr[cut+1+x]) >= want
				})
				nc := cut + 1 + lo
				if nc >= j1 {
					break
				}
				if nc > cut {
					colStart = append(colStart, nc)
					cut = nc
				}
			}
			colStart = append(colStart, j1)
			continue
		}

		// Fuse with the previous slab while the combined weight stays
		// light. Only merge grid slabs (never a freshly split piece back
		// into its neighbour's remainder — pieces of a split slab are
		// heavy by construction anyway).
		if n := len(colStart); n >= 2 {
			prev0 := colStart[n-2]
			combined := int64(a.SlabNNZ(prev0, j1))
			if combined <= fuseCap {
				colStart[n-1] = j1
				fuses++
				continue
			}
		}
		colStart = append(colStart, j1)
	}
	return colStart, splits, fuses
}

// makeWeightedTasks builds the outer-block task list over an arbitrary
// column partition, weighting each cell by nnz(slab)·d1 — the kernel cost
// model shared by Alg3 (sample count) and Alg4 (update stream length).
// For the sparse sketch family (sparsity s > 0) a cell's cost is
// nnz(slab)·s instead: the scatter kernels draw and write s entries per
// S column regardless of the block height, so d1 drops out of the weight.
// Slab-outer, block-row-inner order matches Algorithm 1's loop nesting and
// the PR-1 task order on a uniform partition.
func makeWeightedTasks(d, bd int, a *sparse.CSC, colStart []int, sparsity int) []blockTask {
	nSlabs := len(colStart) - 1
	blockRows := (d + bd - 1) / bd
	tasks := make([]blockTask, 0, nSlabs*blockRows)
	for k := 0; k < nSlabs; k++ {
		j0, j1 := colStart[k], colStart[k+1]
		nnz := int64(a.SlabNNZ(j0, j1))
		for i0 := 0; i0 < d; i0 += bd {
			d1 := bd
			if i0+d1 > d {
				d1 = d - i0
			}
			w := nnz * int64(d1)
			if sparsity > 0 {
				w = nnz * int64(sparsity)
			}
			tasks = append(tasks, blockTask{
				i0: i0, d1: d1, j0: j0, n1: j1 - j0,
				slab: k, weight: w,
			})
		}
	}
	return tasks
}

// padCounter is an atomic counter padded to its own cache line so that the
// per-worker cursor and remaining-weight arrays do not false-share
// (DESIGN.md §5).
type padCounter struct {
	v atomic.Int64
	_ [cacheline.Size - 8]byte
}

// sched is the plan-time-built work-stealing state: per-worker FIFO queue
// segments over a shared task-index array, claimed by atomic cursor. All
// storage is allocated at plan time; Execute only resets counters, keeping
// the 0 allocs/op steady state.
type sched struct {
	order  []int   // task indices, grouped by owner, heaviest-first within
	qoff   []int   // worker w owns order[qoff[w]:qoff[w+1]]
	weight []int64 // task weight, indexed by task index
	loads  []int64 // initial per-worker total weight (reset template)
	cursor []padCounter
	remain []padCounter
}

// newSched prepacks the tasks into per-worker queues with the LPT rule.
// Heaviest tasks are claimed first within each queue, so a thief arriving
// late still picks up the large back-half items in a useful order.
func newSched(tasks []blockTask, workers int) *sched {
	weights := make([]int64, len(tasks))
	for i, t := range tasks {
		weights[i] = t.weight
	}
	assign, loads := analysis.LPTAssign(weights, workers)

	// Heaviest-first stable order over all tasks, then bucket by owner —
	// each queue segment inherits the heaviest-first order.
	byWeight := make([]int, len(tasks))
	for i := range byWeight {
		byWeight[i] = i
	}
	sort.SliceStable(byWeight, func(x, y int) bool {
		return weights[byWeight[x]] > weights[byWeight[y]]
	})

	s := &sched{
		order:  make([]int, 0, len(tasks)),
		qoff:   make([]int, workers+1),
		weight: weights,
		loads:  loads,
		cursor: make([]padCounter, workers),
		remain: make([]padCounter, workers),
	}
	for w := 0; w < workers; w++ {
		s.qoff[w] = len(s.order)
		for _, ti := range byWeight {
			if assign[ti] == w {
				s.order = append(s.order, ti)
			}
		}
	}
	s.qoff[workers] = len(s.order)
	return s
}

// reset re-arms the counters for a new Execute round. Callers publish the
// reset to workers via the round-start channel sends.
func (s *sched) reset() {
	for w := range s.cursor {
		s.cursor[w].v.Store(0)
		s.remain[w].v.Store(s.loads[w])
	}
}

// claim pops the next task index from worker q's queue (FIFO over the
// heaviest-first segment), or returns -1 when the queue is exhausted. Both
// the owner and thieves claim through the same cursor, so every task is
// executed exactly once; cursor overshoot past the segment end is harmless
// and cleared by the next reset.
func (s *sched) claim(q int) int {
	pos := int(s.cursor[q].v.Add(1) - 1)
	lo, hi := s.qoff[q], s.qoff[q+1]
	if pos >= hi-lo {
		return -1
	}
	ti := s.order[lo+pos]
	s.remain[q].v.Add(-s.weight[ti])
	return ti
}

// victim returns the worker (≠ self) with the most remaining queued weight,
// or -1 when every other queue is drained. The scan races with concurrent
// claims by design: a stale answer only costs the thief a failed claim, and
// claim/-1 keeps correctness independent of the choice.
func (s *sched) victim(self int) int {
	best, bestW := -1, int64(0)
	for w := range s.remain {
		if w == self {
			continue
		}
		if r := s.remain[w].v.Load(); r > bestW {
			best, bestW = w, r
		}
	}
	return best
}
