package kernels

import (
	"fmt"
	"math"
	"time"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// genKind is how a Gen produces a column of S.
type genKind uint8

const (
	genDense   genKind = iota // Sampler.Fill into a d1-length scratch column
	genSign                   // raw ±1 sign words, applied by axpySign
	genScatter                // s-sparse SJLT/CountSketch column, scattered adds
	genPregen                 // column read from a materialised S
)

// Gen is the column generator the two kernels consume: for a block row
// [i0, i0+d1) of Â it produces column j of S restricted to those rows,
// either regenerated from the RNG checkpoint (blockRow, j) or read from a
// materialised S. How the column is produced is orthogonal to the loop
// nest, so Algorithms 3 and 4 each have exactly one loop over a Gen.
//
// The kind follows from the inputs, never from an option:
//   - dense: Sampler.Fill into owned scratch, applied by axpy;
//   - ±1 (rng.Rademacher): raw sign words, applied by the fused axpySign
//     with no multiply (the paper's low-width ±1 specialisation);
//   - scatter (rng.SJLT/CountSketch): the s nonzeros of the column, drawn
//     from the reserved per-column checkpoint by FillSJLTColumn. The draw
//     is blocking-independent; blockRow only selects which positions land
//     in this block. Contributions to one Â[p, k] accumulate in ascending
//     sparse-row order in both kernels, so they stay bit-identical;
//   - pre-generated (NewPregenGen): columns read from S in memory, the
//     ablation baseline (DESIGN §4) that regeneration is measured against.
//
// A Gen owns mutable scratch: one per worker, built at plan time, never
// shared between goroutines.
type Gen struct {
	kind genKind
	s    *rng.Sampler
	pre  *dense.Matrix
	d    int // rows of S
	bd   int // tallest block row the scratch serves
	m    int // columns of S available

	// Current block row, set by bind.
	r      uint64
	i0, d1 int
	timer  *time.Duration

	v     []float64 // dense scratch, len bd
	col   []float64 // current column: v[:d1] or a view of pre
	words []uint64  // ±1: current sign words

	sp     int // scatter: nonzeros per column
	scale  float64
	pos    []int
	val    []float64
	lo, hi int // scatter: pos[lo:hi] fall in the current block row
}

// NewGen returns a generator of the d-row sketching matrix S drawn by s,
// serving block rows at most bd tall. sparsity is s for the sparse family
// (resolved with rng.SJLTSparsity) and ignored otherwise.
func NewGen(s *rng.Sampler, d, bd, sparsity int) *Gen {
	g := &Gen{s: s, d: d, bd: bd, m: math.MaxInt}
	switch dist := s.Dist(); {
	case rng.IsSparse(dist):
		g.kind, g.bd = genScatter, d
		g.sp = rng.SJLTSparsity(dist, sparsity, d)
		g.scale = rng.SJLTScale(g.sp)
		g.pos, g.val = make([]int, g.sp), make([]float64, g.sp)
	case dist == rng.Rademacher:
		g.kind = genSign
	default:
		g.kind = genDense
		g.v = make([]float64, bd)
	}
	return g
}

// NewPregenGen returns a generator that reads columns of the materialised
// sketching matrix sm (d×m, e.g. core's MaterializeS) instead of
// generating them. It reports zero samples.
func NewPregenGen(sm *dense.Matrix) *Gen {
	return &Gen{kind: genPregen, pre: sm, d: sm.Rows, bd: sm.Rows, m: sm.Cols}
}

// bind points g at block row [blockRow, blockRow+d1) of S for a slab of m
// sparse rows, timing generation into timer when it is non-nil. It reports
// false when g cannot serve that block.
func (g *Gen) bind(blockRow uint64, d1, m int, timer *time.Duration) bool {
	i0 := int(blockRow)
	if i0 < 0 || i0+d1 > g.d || d1 > g.bd || m > g.m {
		return false
	}
	g.r, g.i0, g.d1, g.timer = blockRow, i0, d1, timer
	if g.kind == genDense {
		g.col = g.v[:d1]
	}
	return true
}

// load makes column j of the bound block row current and returns the
// number of random samples that took.
func (g *Gen) load(j int) (n int64) {
	var t0 time.Time
	if g.timer != nil {
		t0 = time.Now()
	}
	switch g.kind {
	case genDense:
		g.s.SetState(g.r, uint64(j))
		g.s.Fill(g.col)
		n = int64(g.d1)
	case genSign:
		g.s.SetState(g.r, uint64(j))
		g.words = g.s.RawWords(g.d1)
		n = int64(g.d1)
	case genScatter:
		g.s.FillSJLTColumn(uint64(j), g.d, g.sp, g.scale, g.pos, g.val)
		g.lo, g.hi = sjltRange(g.pos, g.i0, g.d1)
		n = int64(g.sp)
	default:
		g.col = g.pre.Col(j)[g.i0 : g.i0+g.d1]
	}
	if g.timer != nil {
		*g.timer += time.Since(t0)
	}
	return n
}

// add computes y += a·(current column).
func (g *Gen) add(a float64, y []float64) {
	switch g.kind {
	case genSign:
		axpySign(a, g.words, y)
	case genScatter:
		pos, val, i0 := g.pos[g.lo:g.hi], g.val[g.lo:g.hi], g.i0
		for b, p := range pos {
			y[p-i0] += val[b] * a
		}
	default:
		axpy(a, g.col, y)
	}
}

// sjltRange returns the half-open index range [lo, hi) of pos whose
// entries fall in the block-row window [i0, i0+d1). pos is strictly
// ascending, s is small: a linear scan beats binary search here.
func sjltRange(pos []int, i0, d1 int) (lo, hi int) {
	end := i0 + d1
	for lo < len(pos) && pos[lo] < i0 {
		lo++
	}
	hi = lo
	for hi < len(pos) && pos[hi] < end {
		hi++
	}
	return lo, hi
}

// Kernel3 is Algorithm 3: compute-kernel variant kji over a CSC column
// slab. It updates Âsub += S[i0:i0+d1, :]·Asub in place, where Âsub is the
// dense d1×n1 view ahat, Asub is the m×n1 CSC slab asub and blockRow is
// the row offset i0 of Âsub within Â (the r of the pseudocode's
// g.set_state(r, j)). For every stored A[j,k] it loads column j of S from
// g afresh — strided access to all three operands and no reuse of random
// numbers, so a dense S costs d·nnz(A) samples (§III-B). sampleTime, when
// non-nil, accumulates the time spent generating (Table III/V).
//
// Returns the number of random samples generated.
func Kernel3(ahat *dense.Matrix, asub *sparse.CSC, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if asub.N != n1 || !g.bind(blockRow, d1, asub.M, sampleTime) {
		panic(fmt.Sprintf("kernels: Kernel3 Âsub %dx%d at row %d does not fit Asub %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, asub.M, asub.N, g.d, g.bd))
	}
	var generated int64
	for k := 0; k < n1; k++ {
		rows, vals := asub.ColView(k)
		col := ahat.Col(k)
		for t, j := range rows {
			generated += g.load(j)
			g.add(vals[t], col)
		}
	}
	return generated
}

// Kernel4 is Algorithm 4: compute-kernel variant jki over one blocked-CSR
// slab, with the same contract as Kernel3. Column j of S is loaded once per
// nonempty sparse row and reused across the row (a rank-1 update), so a
// dense S costs at most d·m·⌈n/b_n⌉ samples (§III-B), at the price of
// sparsity-dependent access to the columns of Âsub.
func Kernel4(ahat *dense.Matrix, slab *sparse.CSR, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 || !g.bind(blockRow, d1, slab.M, sampleTime) {
		panic(fmt.Sprintf("kernels: Kernel4 Âsub %dx%d at row %d does not fit slab %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, slab.M, slab.N, g.d, g.bd))
	}
	var generated int64
	for j := 0; j < slab.M; j++ {
		cols, vals := slab.RowView(j)
		if len(cols) == 0 {
			continue
		}
		generated += g.load(j)
		for t, k := range cols {
			g.add(vals[t], ahat.Col(k))
		}
	}
	return generated
}
