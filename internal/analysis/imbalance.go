package analysis

import "container/heap"

// This file models parallel load balance for the nnz-aware scheduler the
// planner builds (ISSUE PR 2). The cost of a block task is proportional to
// nnz(slab)·d1 for both Algorithm 3 (d·nnz samples over the slab) and
// Algorithm 4 (the rank-1 update stream is nnz-proportional), so scheduling
// reduces to the classic multiprocessor scheduling problem on integer
// weights. LPTAssign implements the Longest-Processing-Time greedy rule,
// a 4/3-approximation to the optimal makespan, which the planner uses to
// prepack per-worker queues before work stealing smooths out the residual.

// LPTAssign distributes weights over `workers` bins with the LPT greedy
// rule: weights are considered heaviest-first and each goes to the currently
// lightest bin (lowest index on ties, so the assignment is deterministic).
// It returns assign[i] = bin of weights[i] and loads[w] = total weight in
// bin w. workers must be ≥ 1.
func LPTAssign(weights []int64, workers int) (assign []int, loads []int64) {
	if workers < 1 {
		workers = 1
	}
	assign = make([]int, len(weights))
	loads = make([]int64, workers)
	// Sort task indices heaviest-first, stable by index for determinism.
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	// Insertion-friendly stable sort by (-weight, index); task counts are
	// small (O(workers·tasksPerWorker)) so O(k log k) via heap would be
	// overkill relative to clarity — use a simple stable merge via sort.
	stableSortByWeightDesc(order, weights)

	h := make(binHeap, workers)
	for w := 0; w < workers; w++ {
		h[w] = bin{load: 0, idx: w}
	}
	heap.Init(&h)
	for _, i := range order {
		b := h[0]
		assign[i] = b.idx
		b.load += weights[i]
		h[0] = b
		heap.Fix(&h, 0)
	}
	for _, b := range h {
		loads[b.idx] = b.load
	}
	return assign, loads
}

type bin struct {
	load int64
	idx  int
}

// binHeap is a min-heap on (load, idx): ties break toward the lowest worker
// index so LPT assignment is fully deterministic.
type binHeap []bin

func (h binHeap) Len() int { return len(h) }
func (h binHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].idx < h[j].idx
}
func (h binHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *binHeap) Push(x interface{}) { *h = append(*h, x.(bin)) }
func (h *binHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func stableSortByWeightDesc(order []int, weights []int64) {
	// Merge sort on the index slice: stable, O(k log k), no allocation
	// pressure concerns at planner scale.
	tmp := make([]int, len(order))
	var ms func(lo, hi int)
	ms = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		ms(lo, mid)
		ms(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if weights[order[j]] > weights[order[i]] {
				tmp[k] = order[j]
				j++
			} else {
				tmp[k] = order[i]
				i++
			}
			k++
		}
		for i < mid {
			tmp[k] = order[i]
			i++
			k++
		}
		for j < hi {
			tmp[k] = order[j]
			j++
			k++
		}
		copy(order[lo:hi], tmp[lo:hi])
	}
	ms(0, len(order))
}

// Imbalance returns max(loads)/mean(loads) — the standard load-imbalance
// ratio (1.0 = perfectly balanced; T workers degrade to ~T when one bin
// holds everything). Returns 0 when loads is empty or all-zero, so callers
// can treat "no work" as undefined rather than balanced.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}

// PredictImbalance runs LPT over the task weights and reports the resulting
// load-imbalance ratio — the planner's a-priori estimate of how uneven the
// prepacked queues are before any stealing happens. A prediction near 1.0
// means the partition alone balances the work; a high value flags that the
// executor will lean on work stealing (or that the slab split failed, e.g. a
// single all-heavy column that cannot be subdivided).
func PredictImbalance(weights []int64, workers int) float64 {
	if len(weights) == 0 {
		return 0
	}
	_, loads := LPTAssign(weights, workers)
	return Imbalance(loads)
}
