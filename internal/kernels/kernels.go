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
// batched draw and are applied as drawn, every Â entry receiving the
// group's adds in the order of its columns, so the bits are those of one
// draw and one update per column.
//
// The kind follows from the inputs, never from an option:
//   - dense: Sampler.FillColumns into owned scratch, applied by axpyCols;
//   - ±1 (rng.Rademacher): raw sign words (Sampler.RawWordsColumns),
//     applied by axpySignCols with no multiply (the paper's low-width ±1
//     specialisation);
//   - scatter (rng.SJLT/CountSketch): the s raw words of each column,
//     drawn from the reserved per-column checkpoints by
//     Sampler.SJLTWordsColumns and decoded into rows and signs
//     (rng.SJLTLayout) as they are scattered. The draw is
//     blocking-independent; blockRow only selects which rows land in this
//     block. Contributions to one Â[p, k] accumulate in ascending
//     sparse-row order in both kernels, so they stay bit-identical;
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
	lay   rng.SJLTLayout // scatter: where each raw word puts its nonzero
	_     [48]byte       // pads the struct to 192 bytes, 3 cache lines
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
		g.lay = rng.NewSJLTLayout(d, g.sp)
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

// scatterWords computes y += a·(column of S) for the s-sparse column whose
// raw words are words: it decodes each word's row and sign in place and
// adds the nonzeros ±scale that fall in the bound block row. As in
// axpyGo, the conversion keeps the product and the add from fusing.
func (g *Gen) scatterWords(a float64, words []uint64, y []float64) {
	sbits := math.Float64bits(g.scale)
	for b, u := range words {
		p, sign := g.lay.Place(b, u)
		if i := p - g.i0; uint(i) < uint(len(y)) {
			y[i] += float64(math.Float64frombits(sbits^sign) * a)
		}
	}
}

// Kernel3 is Algorithm 3: compute-kernel variant kji over a CSC column
// slab. It updates Âsub += S[i0:i0+d1, :]·Asub in place, where Âsub is the
// dense d1×n1 view ahat, Asub is the m×n1 CSC slab asub and blockRow is
// the row offset i0 of Âsub within Â (the r of the pseudocode's
// g.set_state(r, j)). For every stored A[j,k] it loads column j of S from
// g afresh — strided access to all three operands and no reuse of random
// numbers, so a dense S costs d·nnz(A) samples (§III-B). The loads come in
// groups of up to rng.MaxColumns nonzeros of one A column, and a group's
// columns update Âsub's column in one pass (axpyCols). sampleTime,
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
				axpyCols(vals[t:t+len(js)], cols, y)
			}
		}
	case genSign:
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			y := ahat.Col(k)
			for t := 0; t < len(rows); t += rng.MaxColumns {
				js := group(rows, t)
				t0 := clock(sampleTime)
				words := g.s.RawWordsColumns(r, js, d1)
				lap(sampleTime, t0)
				axpySignCols(vals[t:t+len(js)], words, y)
			}
		}
	case genScatter:
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			y := ahat.Col(k)
			for t := 0; t < len(rows); t += rng.MaxColumns {
				js := group(rows, t)
				t0 := clock(sampleTime)
				words := g.s.SJLTWordsColumns(js, sp)
				lap(sampleTime, t0)
				for c, a := range vals[t : t+len(js)] {
					g.scatterWords(a, words[c*sp:(c+1)*sp], y)
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
// slab's non-empty rows and their entry offsets, loading their columns of
// S in groups of up to rng.MaxColumns rows.
func Kernel4(ahat *dense.Matrix, slab *sparse.Slab, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 || !g.bind(blockRow, d1, slab.M) {
		panic(fmt.Sprintf("kernels: Kernel4 Âsub %dx%d at row %d does not fit slab %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, slab.M, slab.N, g.d, g.bd))
	}
	r, i0, sp := g.r, g.i0, g.sp
	rows, off := slab.Rows, slab.Off
	acols, avals := slab.ColIdx, slab.Val
	switch g.kind {
	case genDense:
		for b := 0; b < len(rows); b += rng.MaxColumns {
			js := group(rows, b)
			cols := g.v[:len(js)*d1]
			t0 := clock(sampleTime)
			g.s.FillColumns(r, js, cols)
			lap(sampleTime, t0)
			for c := range js {
				col := cols[c*d1 : (c+1)*d1]
				for e := off[b+c]; e < off[b+c+1]; e++ {
					axpyCols(avals[e:e+1], col, ahat.Col(acols[e]))
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
			for c := range js {
				col := words[c*w : (c+1)*w]
				for e := off[b+c]; e < off[b+c+1]; e++ {
					axpySignCols(avals[e:e+1], col, ahat.Col(acols[e]))
				}
			}
		}
	case genScatter:
		for b := 0; b < len(rows); b += rng.MaxColumns {
			js := group(rows, b)
			t0 := clock(sampleTime)
			words := g.s.SJLTWordsColumns(js, sp)
			lap(sampleTime, t0)
			for c := range js {
				col := words[c*sp : (c+1)*sp]
				for e := off[b+c]; e < off[b+c+1]; e++ {
					g.scatterWords(avals[e], col, ahat.Col(acols[e]))
				}
			}
		}
	default:
		for b, j := range rows {
			col := g.pre.Col(j)[i0 : i0+d1]
			for e := off[b]; e < off[b+1]; e++ {
				axpyCols(avals[e:e+1], col, ahat.Col(acols[e]))
			}
		}
	}
	return g.samples(len(rows))
}
