package core

import (
	"sketchsp/internal/analysis"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// AlgAuto asks the planner to inspect the matrix and pick between Alg3 and
// Alg4 with the §III-B cost model — a lightweight take on the
// inspector-executor idea the paper cites from MKL's sparse library.
const AlgAuto Algorithm = -1

// ChooseAlgorithm inspects a and picks the cheaper kernel for sketch size d
// under the blocking the options resolve to. The §III-B accounting, in
// memory-access equivalents:
//
//   - Algorithm 3 generates d·nnz samples at relative cost h each.
//   - Algorithm 4 generates d·(nonempty rows per slab) samples (counted
//     exactly), pays a conversion charge of m·⌈n/bn⌉ + nnz, and — on
//     random-access-sensitive hosts — a scatter penalty when the Â block
//     (d1×bn doubles) exceeds the cache: every nonzero then touches a cold
//     d1-entry column (d1/8 lines), which Algorithm 3's column-ordered walk
//     avoids.
//
// The m·⌈n/bn⌉ term overstates the conversion, which builds compact slabs
// in O(nnz·⌈log₂m/8⌉) with nothing per row; it is kept so AlgAuto picks
// the same kernel on every input until the model is refitted (ROADMAP.md
// item 3, the chooser that follows the RNG-speed dichotomy).
//
// h is the relative cost of one random sample versus one memory access for
// the baseline uniform distribution; it is scaled by the configured
// distribution's measured per-sample cost (rng.DistCost), so a fused-±1
// Rademacher sketch is charged far less recomputation than a ziggurat
// Gaussian one. h ≤ 0 selects 1 (pessimistic for recomputation);
// cacheBytes ≤ 0 selects 32 MiB. The choice is a heuristic ranking, not a
// guarantee; Table VI's lesson — Algorithm 3 for wildly varying patterns —
// corresponds to the penalty term dominating.
func ChooseAlgorithm(a *sparse.CSC, d int, opts Options, h float64, cacheBytes int64) Algorithm {
	if h <= 0 {
		h = 1
	}
	h *= rng.DistCost(opts.Dist)
	if cacheBytes <= 0 {
		cacheBytes = 32 << 20
	}
	bd4, bn4 := resolveBlockSizes(d, a.N, Alg4, opts.BlockD, opts.BlockN)

	// Sparse sketch family: a column of S carries s nonzeros instead of d,
	// so both kernels' sample streams and Alg4's scattered writes shrink by
	// the density factor s/d. The same accounting with the terms scaled.
	density := 1.0
	if s := rng.SJLTSparsity(opts.Dist, opts.Sparsity, d); s > 0 && d > 0 {
		density = float64(s) / float64(d)
	}

	cost3 := h * float64(analysis.PredictAlg3Samples(a, d)) * density

	samples4 := float64(analysis.PredictAlg4Samples(a, d, bn4)) * density
	slabs := (a.N + bn4 - 1) / bn4
	conversion := float64(a.M*slabs + a.NNZ())
	cost4 := h*samples4 + conversion
	if int64(bd4)*int64(bn4)*8 > cacheBytes {
		// Â block spills the cache: charge Alg4's scattered rank-1
		// updates one cold column read per nonzero. A sparse S column
		// touches only the s/d fraction of the block's rows.
		cost4 += float64(a.NNZ()) * float64(bd4) / 8 * density
	}
	if cost4 < cost3 {
		return Alg4
	}
	return Alg3
}
