package kernels

import (
	"fmt"
	"math"
	"time"

	"sketchsp/internal/cacheline"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// genKind is how a Gen produces a column of S.
type genKind uint8

const (
	genDense   genKind = iota // Sampler.Fill into a d1-length scratch column, applied by axpy
	genSign                   // raw ±1 sign words, applied by axpySign
	genScatter                // s-sparse SJLT/CountSketch column, scattered adds
	genPregen                 // column read from a materialised S
)

// Gen is the column generator the two kernels consume: for a block row
// [i0, i0+d1) of Â it produces columns of S restricted to those rows,
// either regenerated from the RNG checkpoints (blockRow, j) or read from a
// materialised S. Each kernel switches on the kind once per call and runs
// one loop per kind, which calls the generation and the update directly.
// Regenerated columns come in groups of up to rng.MaxColumns from one
// batched draw, and each group's updates run in the order of its columns,
// so the bits are those of one draw and one update per column.
//
// The kind follows from the inputs, never from an option:
//   - dense: Sampler.FillColumns into owned scratch, applied by axpy;
//   - ±1 (rng.Rademacher): raw sign words (Sampler.RawWordsColumns),
//     applied by the fused axpySign with no multiply (the paper's
//     low-width ±1 specialisation);
//   - scatter (rng.SJLT/CountSketch): the s nonzeros of each column,
//     drawn from the reserved per-column checkpoints by
//     Sampler.FillSJLTColumns. The draw is blocking-independent; blockRow
//     only selects which positions land in this block. Contributions to
//     one Â[p, k] accumulate in ascending sparse-row order in both
//     kernels, so they stay bit-identical;
//   - pre-generated (NewPregenGen): columns read from S in memory, the
//     ablation baseline (DESIGN §4) that regeneration is measured against.
//
// A Gen owns mutable scratch: one per worker, built at plan time, never
// shared between goroutines. The struct and its scratch sit on cache
// lines of their own (DESIGN.md §5).
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

	v []float64 // dense scratch: rng.MaxColumns columns of up to bd rows

	sp    int // scatter: nonzeros per column
	scale float64
	pos   []int     // scatter: rng.MaxColumns columns of sp positions
	val   []float64 // and their values
	_     [32]byte  // pads the struct to 192 bytes, 3 cache lines
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
		g.pos = cacheline.Make[int](rng.MaxColumns * g.sp)
		g.val = cacheline.Make[float64](rng.MaxColumns * g.sp)
	case dist == rng.Rademacher:
		g.kind = genSign
	default:
		g.kind = genDense
		g.v = cacheline.Make[float64](rng.MaxColumns * bd)
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
// sparse rows. It reports false when g cannot serve that block.
func (g *Gen) bind(blockRow uint64, d1, m int) bool {
	i0 := int(blockRow)
	if i0 < 0 || i0+d1 > g.d || d1 > g.bd || m > g.m {
		return false
	}
	g.r, g.i0, g.d1 = blockRow, i0, d1
	return true
}

// samples returns the number of random samples that loads columns of S
// take.
func (g *Gen) samples(loads int) int64 {
	switch g.kind {
	case genScatter:
		return int64(loads) * int64(g.sp)
	case genPregen:
		return 0
	default:
		return int64(loads) * int64(g.d1)
	}
}

// group returns the next batch of at most rng.MaxColumns indices of js
// from t on.
func group(js []int, t int) []int { return js[t:min(t+rng.MaxColumns, len(js))] }

// clock and lap time generation when timer is non-nil: a nil check on
// each side of the generation call, and nothing else in the loops.
func clock(timer *time.Duration) time.Time {
	if timer == nil {
		return time.Time{}
	}
	return time.Now()
}

func lap(timer *time.Duration, t0 time.Time) {
	if timer != nil {
		*timer += time.Since(t0)
	}
}

// scatter computes y += a·(column of S) for the nonzeros (pos, val) of an
// s-sparse column that fall in block row [i0, i0+len(y)). As in axpyGo,
// the conversion keeps the product and the add from fusing.
func scatter(a float64, pos []int, val []float64, i0 int, y []float64) {
	for b, p := range pos {
		y[p-i0] += float64(val[b] * a)
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
// numbers, so a dense S costs d·nnz(A) samples (§III-B). The loads come in
// groups of up to rng.MaxColumns nonzeros of one A column. sampleTime,
// when non-nil, accumulates the time spent generating (Table III/V), one
// clock pair per group.
//
// Returns the number of random samples generated.
func Kernel3(ahat *dense.Matrix, asub *sparse.CSC, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if asub.N != n1 || !g.bind(blockRow, d1, asub.M) {
		panic(fmt.Sprintf("kernels: Kernel3 Âsub %dx%d at row %d does not fit Asub %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, asub.M, asub.N, g.d, g.bd))
	}
	r, i0, sp := g.r, g.i0, g.sp
	switch g.kind {
	case genDense:
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			y := ahat.Col(k)
			for t := 0; t < len(rows); t += rng.MaxColumns {
				js := group(rows, t)
				cols := g.v[:len(js)*d1]
				t0 := clock(sampleTime)
				g.s.FillColumns(r, js, cols)
				lap(sampleTime, t0)
				for c, a := range vals[t : t+len(js)] {
					axpy(a, cols[c*d1:(c+1)*d1], y)
				}
			}
		}
	case genSign:
		w := (d1 + 63) / 64
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			y := ahat.Col(k)
			for t := 0; t < len(rows); t += rng.MaxColumns {
				js := group(rows, t)
				t0 := clock(sampleTime)
				words := g.s.RawWordsColumns(r, js, d1)
				lap(sampleTime, t0)
				for c, a := range vals[t : t+len(js)] {
					axpySign(a, words[c*w:(c+1)*w], y)
				}
			}
		}
	case genScatter:
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			y := ahat.Col(k)
			for t := 0; t < len(rows); t += rng.MaxColumns {
				js := group(rows, t)
				t0 := clock(sampleTime)
				g.s.FillSJLTColumns(js, g.d, sp, g.scale, g.pos, g.val)
				lap(sampleTime, t0)
				for c, a := range vals[t : t+len(js)] {
					pos, val := g.pos[c*sp:(c+1)*sp], g.val[c*sp:(c+1)*sp]
					lo, hi := sjltRange(pos, i0, d1)
					scatter(a, pos[lo:hi], val[lo:hi], i0, y)
				}
			}
		}
	default:
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			y := ahat.Col(k)
			for t, j := range rows {
				axpy(vals[t], g.pre.Col(j)[i0:i0+d1], y)
			}
		}
	}
	return g.samples(asub.ColPtr[n1] - asub.ColPtr[0])
}

// Kernel4 is Algorithm 4: compute-kernel variant jki over one blocked-CSR
// slab, with the same contract as Kernel3. Column j of S is loaded once per
// nonempty sparse row and reused across the row (a rank-1 update), so a
// dense S costs at most d·m·⌈n/b_n⌉ samples (§III-B), at the price of
// sparsity-dependent access to the columns of Âsub. The loops walk the
// slab's recorded non-empty rows, loading their columns of S in groups of
// up to rng.MaxColumns rows.
func Kernel4(ahat *dense.Matrix, slab *sparse.CSR, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 || !g.bind(blockRow, d1, slab.M) {
		panic(fmt.Sprintf("kernels: Kernel4 Âsub %dx%d at row %d does not fit slab %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, slab.M, slab.N, g.d, g.bd))
	}
	r, i0, sp := g.r, g.i0, g.sp
	rows := slab.NonEmptyRows()
	switch g.kind {
	case genDense:
		for b := 0; b < len(rows); b += rng.MaxColumns {
			js := group(rows, b)
			cols := g.v[:len(js)*d1]
			t0 := clock(sampleTime)
			g.s.FillColumns(r, js, cols)
			lap(sampleTime, t0)
			for c, j := range js {
				col := cols[c*d1 : (c+1)*d1]
				acols, vals := slab.RowView(j)
				for t, k := range acols {
					axpy(vals[t], col, ahat.Col(k))
				}
			}
		}
	case genSign:
		w := (d1 + 63) / 64
		for b := 0; b < len(rows); b += rng.MaxColumns {
			js := group(rows, b)
			t0 := clock(sampleTime)
			words := g.s.RawWordsColumns(r, js, d1)
			lap(sampleTime, t0)
			for c, j := range js {
				col := words[c*w : (c+1)*w]
				acols, vals := slab.RowView(j)
				for t, k := range acols {
					axpySign(vals[t], col, ahat.Col(k))
				}
			}
		}
	case genScatter:
		for b := 0; b < len(rows); b += rng.MaxColumns {
			js := group(rows, b)
			t0 := clock(sampleTime)
			g.s.FillSJLTColumns(js, g.d, sp, g.scale, g.pos, g.val)
			lap(sampleTime, t0)
			for c, j := range js {
				pos, val := g.pos[c*sp:(c+1)*sp], g.val[c*sp:(c+1)*sp]
				lo, hi := sjltRange(pos, i0, d1)
				acols, vals := slab.RowView(j)
				for t, k := range acols {
					scatter(vals[t], pos[lo:hi], val[lo:hi], i0, ahat.Col(k))
				}
			}
		}
	default:
		for _, j := range rows {
			cols, vals := slab.RowView(j)
			col := g.pre.Col(j)[i0 : i0+d1]
			for t, k := range cols {
				axpy(vals[t], col, ahat.Col(k))
			}
		}
	}
	return g.samples(len(rows))
}
