package analysis

import (
	"fmt"
	"math"

	"sketchsp/internal/sparse"
)

// PredictAlg4Samples counts exactly how many random values Algorithm 4
// would generate for matrix a with sketch size d and slab width bn: for
// every vertical slab, d samples per row that has at least one nonzero in
// that slab (§III-B — the quantity the paper says one could tune b_n to
// minimise). It groups each slab's rows the way the blocked conversion
// does (sparse.SlabRows) without building the slabs: O(nnz) memory and
// no term in m.
func PredictAlg4Samples(a *sparse.CSC, d, bn int) int64 {
	if bn <= 0 {
		panic(fmt.Sprintf("analysis: PredictAlg4Samples bn=%d", bn))
	}
	return int64(d) * int64(sparse.SlabRows(a, sparse.UniformColSplit(a.N, bn)))
}

// PredictAlg3Samples is the (blocking-independent) sample count of
// Algorithm 3: d per nonzero.
func PredictAlg3Samples(a *sparse.CSC, d int) int64 {
	return int64(d) * int64(a.NNZ())
}

// TuneResult is one evaluated candidate of TuneBlockN.
type TuneResult struct {
	BlockN  int
	Samples int64
	// Cost is the §III-B model cost in "memory-access equivalents":
	// h·samples for generation plus the streaming traffic of A and Â
	// (Â is revisited once per block-row per slab).
	Cost float64
}

// TuneBlockN evaluates candidate slab widths for Algorithm 4 under the
// cost model of §III-B and returns them ranked with the best first. h is
// the relative cost of generating one random value (measure it with
// RunStream; 0 selects 1). The model charges
//
//	cost(bn) = h·samples(bn) + nnz(A)·(1 + d/8) + d·n·⌈hint⌉
//
// where the Â term reflects one streaming pass per slab (the d/8 term is
// the per-nonzero line traffic of updating a d-vector in Â). It is a
// ranking heuristic, not a simulator — use Cache/TraceAlg4 for exact
// traffic.
func TuneBlockN(a *sparse.CSC, d int, h float64, candidates []int) []TuneResult {
	if h <= 0 {
		h = 1
	}
	if len(candidates) == 0 {
		candidates = DefaultBlockNCandidates(a.N)
	}
	out := make([]TuneResult, 0, len(candidates))
	for _, bn := range candidates {
		if bn <= 0 || bn > a.N {
			continue
		}
		samples := PredictAlg4Samples(a, d, bn)
		traffic := float64(a.NNZ()) * (2 + float64(d)/8)
		cost := h*float64(samples) + traffic
		out = append(out, TuneResult{BlockN: bn, Samples: samples, Cost: cost})
	}
	// Insertion sort by cost (few candidates).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Cost < out[j-1].Cost; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DefaultBlockNCandidates returns a log-spaced candidate set in [16, n].
func DefaultBlockNCandidates(n int) []int {
	if n < 1 {
		return nil
	}
	var out []int
	for v := 16; v < n; v *= 2 {
		out = append(out, v)
	}
	out = append(out, n)
	if len(out) == 1 && n >= 1 {
		return []int{n}
	}
	return out
}

// EstimateH measures the paper's h on the current host: the cost of
// generating one uniform sample relative to streaming one double from
// memory (both from RunStream). Values below 1 put the host in the regime
// where on-the-fly generation beats pre-computation (§III-A).
func EstimateH(streamN, reps int) float64 {
	res := RunStream(streamN, reps)
	if res.RNGShortGSs <= 0 || res.TriadGBs <= 0 {
		return math.Inf(1)
	}
	memPerDouble := 8 / (res.TriadGBs * 1e9)
	genPerSample := 1 / (res.RNGShortGSs * 1e9)
	return genPerSample / memPerDouble
}
