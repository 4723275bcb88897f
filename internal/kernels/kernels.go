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
	genDense   genKind = iota // Sampler.FillColumns into a d1-length scratch column, applied by axpyCols
	genSign                   // raw ±1 sign words, applied by axpySignCols
	genScatter                // s-sparse SJLT/CountSketch column, scattered adds
	genPregen                 // column read from a materialised S
)

// Gen is the column generator the two kernels consume: for a block row
// [i0, i0+d1) of Â it produces columns of S restricted to those rows,
// either regenerated from the RNG checkpoints (blockRow, j) or read from a
// materialised S. Each kernel switches on the kind once per call and runs
// one loop per kind. Regenerated columns are applied as drawn, every Â
// entry receiving its adds in the order of its columns of S, so the bits
// are those of one draw and one update per column.
//
// The kind follows from the inputs, never from an option:
//   - dense: Sampler.FillColumns, in groups of up to rng.MaxColumns
//     columns, into owned scratch, applied by axpyCols (Algorithm 3, one
//     call per group) or axpyRows (Algorithm 4, one call per group of
//     rows and all their entries);
//   - ±1 (rng.Rademacher): raw sign words (Sampler.RawColumns), applied
//     with no multiply (the paper's low-width ±1 specialisation) by
//     axpySignCols (one call per A column) or axpySignRows (one call per
//     chunk of slab rows);
//   - scatter (rng.SJLT/CountSketch): the s raw words of each column,
//     drawn from the reserved per-column checkpoints by
//     Sampler.SJLTColumns and decoded into rows and signs
//     (rng.SJLTLayout) as they are scattered, by scatterCols (one call per
//     A column) or scatterRows (one call per chunk of slab rows). The draw
//     is blocking-independent; blockRow only selects which rows land in
//     this block. Contributions to one Â[p, k] accumulate in ascending
//     sparse-row order in both kernels, so they stay bit-identical;
//   - pre-generated (NewPregenGen): columns read from S in memory, the
//     ablation baseline (DESIGN §4) that regeneration is measured against.
//
// The ±1 and sparse kinds draw the columns of a whole chunk of a task's
// sparse rows at once, up to chunk columns: rng.ChunkWords of scratch, sized
// at plan time, whatever the slab's nonzeros.
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

	v     []float64 // dense scratch: rng.MaxColumns columns of up to bd rows
	words []uint64  // ±1 and scatter scratch: chunk columns of raw words
	chunk int       // columns per raw draw

	sp    int // scatter: nonzeros per column
	scale float64
	lay   rng.SJLTLayout // scatter: where each raw word puts its nonzero
	dec   sjltDecode     // scatter: the layout as the vector decode reads it
	_     [56]byte       // pads the struct to 320 bytes, 5 cache lines
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
		g.dec = newSJLTDecode(g.lay, g.sp, g.scale)
		g.words = g.chunkScratch(g.sp)
	case dist == rng.Rademacher:
		g.kind = genSign
		g.words = g.chunkScratch((bd + 63) / 64)
	default:
		g.kind = genDense
		g.v = cacheline.Make[float64](rng.MaxColumns * bd)
	}
	return g
}

// chunkScratch sets g.chunk for columns of w raw words (rng.ChunkColumns)
// and returns their scratch.
func (g *Gen) chunkScratch(w int) []uint64 {
	g.chunk = rng.ChunkColumns(w)
	return cacheline.Make[uint64](g.chunk * w)
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
	g.dec.i0, g.dec.d1 = i0, d1
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

// rawWords is the number of raw words a ±1 or scatter column of the bound
// block row takes.
func (g *Gen) rawWords() int {
	if g.kind == genScatter {
		return g.sp
	}
	return (g.d1 + 63) / 64
}

// draw returns the raw words of columns js of the bound block row, at most
// g.chunk of them, rawWords per column, from one slab-wide draw.
func (g *Gen) draw(js []int) []uint64 {
	w := g.rawWords()
	words := g.words[:len(js)*w]
	if g.kind == genScatter {
		g.s.SJLTColumns(js, g.sp, words)
	} else {
		g.s.RawColumns(g.r, js, g.d1, words)
	}
	return words
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

// Kernel3 is Algorithm 3: compute-kernel variant kji over a CSC column
// slab. It updates Âsub += S[i0:i0+d1, :]·Asub in place, where Âsub is the
// dense d1×n1 view ahat, Asub is the m×n1 CSC slab asub and blockRow is
// the row offset i0 of Âsub within Â (the r of the pseudocode's
// g.set_state(r, j)). For every stored A[j,k] it loads column j of S from
// g afresh — strided access to all three operands and no reuse of random
// numbers, so a dense S costs d·nnz(A) samples (§III-B). Dense columns
// come in groups of up to rng.MaxColumns nonzeros of one A column, and a
// group's columns update Âsub's column in one pass (axpyCols). The ±1
// and sparse kinds draw the columns of up to g.chunk nonzeros of the slab
// at once, and apply those of one A column in one call. sampleTime, when
// non-nil, accumulates the time spent generating (Table III/V), one clock
// pair per draw.
//
// Returns the number of random samples generated.
func Kernel3(ahat *dense.Matrix, asub *sparse.CSC, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if asub.N != n1 || !g.bind(blockRow, d1, asub.M) {
		panic(fmt.Sprintf("kernels: Kernel3 Âsub %dx%d at row %d does not fit Asub %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, asub.M, asub.N, g.d, g.bd))
	}
	r, i0 := g.r, g.i0
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
	case genSign, genScatter:
		ptr, base := asub.ColPtr, asub.ColPtr[0]
		js, vals := asub.RowIdx[base:ptr[n1]], asub.Val[base:ptr[n1]]
		w := g.rawWords()
		k := 0
		for e0 := 0; e0 < len(js); e0 += g.chunk {
			e1 := min(e0+g.chunk, len(js))
			t0 := clock(sampleTime)
			words := g.draw(js[e0:e1])
			lap(sampleTime, t0)
			// Apply the part of each A column that lies in [e0, e1); a
			// column that runs on past e1 continues in the next chunk.
			for ; k < n1; k++ {
				lo, hi := max(ptr[k]-base, e0), min(ptr[k+1]-base, e1)
				if lo < hi {
					cw := words[(lo-e0)*w : (hi-e0)*w]
					if g.kind == genSign {
						axpySignCols(vals[lo:hi], cw, ahat.Col(k))
					} else {
						g.scatterCols(vals[lo:hi], cw, ahat.Col(k))
					}
				}
				if ptr[k+1]-base > e1 {
					break
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
// S in groups of up to rng.MaxColumns rows (dense) or g.chunk rows (±1
// and sparse), and apply each group to all its entries in one call.
func Kernel4(ahat *dense.Matrix, slab *sparse.Slab, g *Gen, blockRow uint64, sampleTime *time.Duration) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 || !g.bind(blockRow, d1, slab.M) {
		panic(fmt.Sprintf("kernels: Kernel4 Âsub %dx%d at row %d does not fit slab %dx%d or S (%d rows, blocks ≤ %d)",
			d1, n1, blockRow, slab.M, slab.N, g.d, g.bd))
	}
	r, i0 := g.r, g.i0
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
			axpyRows(cols, off[b:b+len(js)+1], acols, avals, ahat)
		}
	case genSign, genScatter:
		for b0 := 0; b0 < len(rows); b0 += g.chunk {
			b1 := min(b0+g.chunk, len(rows))
			t0 := clock(sampleTime)
			words := g.draw(rows[b0:b1])
			lap(sampleTime, t0)
			if g.kind == genSign {
				axpySignRows(words, off[b0:b1+1], acols, avals, ahat)
			} else {
				g.scatterRows(words, off[b0:b1+1], acols, avals, ahat)
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
