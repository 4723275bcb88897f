// Package kernels implements the paper's compute kernels: the six toy loop
// orderings of Algorithm 2 (used by tests and the loop-order ablation) and
// the two production kernels — Algorithm 3 (variant kji over CSC) and
// Algorithm 4 (variant jki over blocked CSR) — over a column generator (Gen)
// that regenerates columns of S on the fly or, for the pre-generated
// baseline, reads them from a materialised S. Each kernel has one loop per
// generator kind: dense columns are drawn in groups of up to four
// (rng.MaxColumns), ±1 and sparse columns a chunk of a slab at a time, and
// every update routine applies many columns or entries per call, so the
// bits are those of one draw and one update per column. The updates run
// in AVX-512 assembly where rng does (avx512_amd64.s), with the Go loops
// as the reference.
package kernels

import (
	"fmt"
	"math"

	"sketchsp/internal/cacheline"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// LoopOrder names one of the six orderings of Algorithm 2's three loops
// (i over rows of L, j over the inner dimension, k over columns of R).
type LoopOrder int

// The six loop orderings of §II-B.
const (
	OrderIJK LoopOrder = iota
	OrderIKJ
	OrderKIJ
	OrderJIK
	OrderJKI
	OrderKJI
)

// String implements fmt.Stringer for LoopOrder.
func (o LoopOrder) String() string {
	switch o {
	case OrderIJK:
		return "ijk"
	case OrderIKJ:
		return "ikj"
	case OrderKIJ:
		return "kij"
	case OrderJIK:
		return "jik"
	case OrderJKI:
		return "jki"
	case OrderKJI:
		return "kji"
	default:
		return fmt.Sprintf("LoopOrder(%d)", int(o))
	}
}

// AllLoopOrders lists every ordering for the ablation bench.
func AllLoopOrders() []LoopOrder {
	return []LoopOrder{OrderIJK, OrderIKJ, OrderKIJ, OrderJIK, OrderJKI, OrderKJI}
}

// MultiplyLoopOrder computes G += L·R with the chosen loop ordering over a
// pre-materialised dense L (d1×m1). R is supplied in both CSC and CSR form;
// each ordering walks whichever format its access pattern needs (§II-B rules
// out some orderings precisely because of this). G must be d1×n1.
func MultiplyLoopOrder(order LoopOrder, l *dense.Matrix, rcsc *sparse.CSC, rcsr *sparse.CSR, g *dense.Matrix) {
	d1, m1 := l.Rows, l.Cols
	if rcsc.M != m1 || g.Rows != d1 || g.Cols != rcsc.N {
		panic(fmt.Sprintf("kernels: dims L=%dx%d R=%dx%d G=%dx%d",
			d1, m1, rcsc.M, rcsc.N, g.Rows, g.Cols))
	}
	switch order {
	case OrderIJK:
		// Row i of G = Σ_j L[i,j] · (row j of R): sums sparse rows, the
		// ordering §II-B rules out as inefficient for any sparse format.
		for i := 0; i < d1; i++ {
			for j := 0; j < m1; j++ {
				lij := l.At(i, j)
				if lij == 0 {
					continue
				}
				cols, vals := rcsr.RowView(j)
				for t, k := range cols {
					g.Set(i, k, g.At(i, k)+lij*vals[t])
				}
			}
		}
	case OrderIKJ:
		// G[i,k] = ℓ̂ᵢ·r_k streaming G row-major; needs noncontiguous
		// gathers from row i of L at the sparse positions of column k.
		for i := 0; i < d1; i++ {
			for k := 0; k < rcsc.N; k++ {
				rows, vals := rcsc.ColView(k)
				var s float64
				for t, j := range rows {
					s += l.At(i, j) * vals[t]
				}
				g.Set(i, k, g.At(i, k)+s)
			}
		}
	case OrderKIJ:
		// Same dot products, streaming G column-major.
		for k := 0; k < rcsc.N; k++ {
			rows, vals := rcsc.ColView(k)
			gk := g.Col(k)
			for i := 0; i < d1; i++ {
				var s float64
				for t, j := range rows {
					s += l.At(i, j) * vals[t]
				}
				gk[i] += s
			}
		}
	case OrderJIK:
		// Rank-1 updates ℓ_j·r̂ⱼ applied row-wise (Figure 1): for each i,
		// scatter into the sparse positions of row j — noncontiguous G.
		for j := 0; j < m1; j++ {
			cols, vals := rcsr.RowView(j)
			if len(cols) == 0 {
				continue
			}
			lj := l.Col(j)
			for i := 0; i < d1; i++ {
				lij := lj[i]
				for t, k := range cols {
					g.Set(i, k, g.At(i, k)+lij*vals[t])
				}
			}
		}
	case OrderJKI:
		// Rank-1 updates applied column-wise (Figure 3 / Algorithm 4's
		// ordering): one column of L reused across the whole row of R.
		for j := 0; j < m1; j++ {
			cols, vals := rcsr.RowView(j)
			if len(cols) == 0 {
				continue
			}
			lj := l.Col(j)
			for t, k := range cols {
				axpy(vals[t], lj, g.Col(k))
			}
		}
	case OrderKJI:
		// Column k of G = Σ linear combination of columns of L picked by
		// the sparsity of column k of R (Figure 2 / Algorithm 3's order).
		for k := 0; k < rcsc.N; k++ {
			rows, vals := rcsc.ColView(k)
			gk := g.Col(k)
			for t, j := range rows {
				axpy(vals[t], l.Col(j), gk)
			}
		}
	default:
		panic(fmt.Sprintf("kernels: bad loop order %d", order))
	}
}

// axpy computes y += a*x: a rounded product, then a rounded sum, never a
// fused multiply-add. It is axpyCols with one column.
func axpy(a float64, x, y []float64) {
	axpyCols([]float64{a}, x, y)
}

// axpyCols applies len(a) columns of S to y in one pass: with n = len(y)
// and column c at x[c*n:(c+1)*n], every element becomes
// y[i] = ((y[i] + a[0]·x₀[i]) + a[1]·x₁[i]) + …, each product rounded
// before its add. That is the sequence of operations of len(a) axpys in
// column order, so the bits are theirs, while y is loaded and stored once.
// It takes 1 to rng.MaxColumns columns and runs on ZMM registers where rng
// runs its AVX-512 backend; the per-column Go loop (axpyGo) is the
// reference it is tested against.
func axpyCols(a, x, y []float64) {
	if len(a) < 1 || len(a) > rng.MaxColumns || len(x) != len(a)*len(y) {
		panic(fmt.Sprintf("kernels: axpyCols of %d columns over %d values into %d rows", len(a), len(x), len(y)))
	}
	if useAVX512 {
		axpyColsAVX(a, x, y)
		return
	}
	n := len(y)
	for c, ac := range a {
		axpyGo(ac, x[c*n:(c+1)*n], y)
	}
}

// axpyGo computes y += a*x with 4-way unrolling: the Go reference, and the
// only backend without AVX-512. The explicit float64 conversion rounds the
// product before the add, so the compiler cannot fuse the two (gc does
// fuse x*y+z on arm64, and on amd64 from GOAMD64=v3): the bits do not
// depend on GOARCH or GOAMD64.
func axpyGo(a float64, x, y []float64) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float64(a * x[i])
		y[i+1] += float64(a * x[i+1])
		y[i+2] += float64(a * x[i+2])
		y[i+3] += float64(a * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float64(a * x[i])
	}
}

// axpySignCols applies len(a) ±1 columns of S to y: y[i] += ±a[c] with
// the sign taken from bit i of column c's words, words[c*w:(c+1)*w] for
// w = ⌈len(y)/64⌉ (bit 0 → +a, matching the Rademacher convention
// 1−2·bit), so element i becomes y[i] = ((y[i] + ±a[0]) + ±a[1]) + ….
// No multiply and no materialised ±1 vector: this is the fused fast path
// of the paper's ±1 distribution. On the AVX-512 backend, one call walks
// y in strips of 64 rows held in eight ZMM registers and applies every
// column to a strip, an opmask picking −a[c] or a[c] eight elements at a
// time; axpySignGo, one column at a time, is the reference.
func axpySignCols(a []float64, words []uint64, y []float64) {
	w := (len(y) + 63) / 64
	if len(words) < len(a)*w {
		panic(fmt.Sprintf("kernels: axpySignCols of %d columns over %d words into %d rows", len(a), len(words), len(y)))
	}
	if len(a) == 0 || len(y) == 0 {
		return
	}
	if useAVX512 {
		signColsAVX(a, words, y)
		return
	}
	for c, ac := range a {
		axpySignGo(ac, words[c*w:(c+1)*w], y)
	}
}

// axpySignGo is the Go loop of one ±1 column. The inner groups of four
// never straddle a word because 64 is a multiple of 4.
func axpySignGo(a float64, words []uint64, y []float64) {
	abits := math.Float64bits(a)
	n := len(y)
	i := 0
	for ; i+4 <= n; i += 4 {
		w := words[i>>6] >> uint(i&63)
		out := y[i : i+4 : i+4]
		out[0] += math.Float64frombits(abits ^ ((w & 1) << 63))
		out[1] += math.Float64frombits(abits ^ ((w >> 1 & 1) << 63))
		out[2] += math.Float64frombits(abits ^ ((w >> 2 & 1) << 63))
		out[3] += math.Float64frombits(abits ^ ((w >> 3 & 1) << 63))
	}
	for ; i < n; i++ {
		bit := (words[i>>6] >> uint(i&63)) & 1
		y[i] += math.Float64frombits(abits ^ (bit << 63))
	}
}

// checkRows panics unless off (len(off)-1 rows of a slab) and the
// entries it points at fit cols, vals and ahat: the assembly trusts them.
func checkRows(what string, off, cols []int, vals []float64, ahat *dense.Matrix) {
	if len(off) < 1 || off[0] < 0 || off[len(off)-1] > min(len(cols), len(vals)) || off[0] > off[len(off)-1] {
		panic(fmt.Sprintf("kernels: %s over entries %v of %d", what, off, len(vals)))
	}
	if ahat.Rows > 0 && ahat.Cols > 0 && len(ahat.Data) < (ahat.Cols-1)*ahat.Stride+ahat.Rows {
		panic(fmt.Sprintf("kernels: %s into a %dx%d view of %d values", what, ahat.Rows, ahat.Cols, len(ahat.Data)))
	}
}

// axpyRows is Algorithm 4's dense update of a group of slab rows: row b's
// column of S, x[b*d1:(b+1)*d1] with d1 = ahat.Rows, is added times
// vals[e] to column cols[e] of ahat for each of its entries e in
// [off[b], off[b+1]), rows and entries in order, each product rounded
// before its add. The AVX-512 backend does the whole group in one call.
func axpyRows(x []float64, off, cols []int, vals []float64, ahat *dense.Matrix) {
	d1 := ahat.Rows
	checkRows("axpyRows", off, cols, vals, ahat)
	if len(x) < (len(off)-1)*d1 {
		panic(fmt.Sprintf("kernels: axpyRows of %d rows over %d values", len(off)-1, len(x)))
	}
	if d1 == 0 || off[0] == off[len(off)-1] {
		return
	}
	if useAVX512 {
		axpyRowsAVX(x, off, cols, vals, ahat.Data, ahat.Stride, d1)
		return
	}
	axpyRowsGo(x, off, cols, vals, ahat)
}

// axpyRowsGo is axpyRows in Go: one axpyGo per entry.
func axpyRowsGo(x []float64, off, cols []int, vals []float64, ahat *dense.Matrix) {
	d1 := ahat.Rows
	for b := 0; b+1 < len(off); b++ {
		col := x[b*d1 : (b+1)*d1]
		for e := off[b]; e < off[b+1]; e++ {
			axpyGo(vals[e], col, ahat.Col(cols[e]))
		}
	}
}

// axpySignRows is axpyRows for ±1 columns: row b's sign words are
// words[b*w:(b+1)*w], w = ⌈d1/64⌉, applied as axpySignGo applies them.
func axpySignRows(words []uint64, off, cols []int, vals []float64, ahat *dense.Matrix) {
	d1 := ahat.Rows
	w := (d1 + 63) / 64
	checkRows("axpySignRows", off, cols, vals, ahat)
	if len(words) < (len(off)-1)*w {
		panic(fmt.Sprintf("kernels: axpySignRows of %d rows over %d words", len(off)-1, len(words)))
	}
	if d1 == 0 || off[0] == off[len(off)-1] {
		return
	}
	if useAVX512 {
		signRowsAVX(words, off, cols, vals, ahat.Data, ahat.Stride, d1)
		return
	}
	axpySignRowsGo(words, off, cols, vals, ahat)
}

// axpySignRowsGo is axpySignRows in Go: one axpySignGo per entry.
func axpySignRowsGo(words []uint64, off, cols []int, vals []float64, ahat *dense.Matrix) {
	w := (ahat.Rows + 63) / 64
	for b := 0; b+1 < len(off); b++ {
		col := words[b*w : (b+1)*w]
		for e := off[b]; e < off[b+1]; e++ {
			axpySignGo(vals[e], col, ahat.Col(cols[e]))
		}
	}
}

// sjltDecode is an SJLT layout in the form the vector decode of
// scatterColsAVX and scatterRowsAVX reads (avx512_amd64.s, through the
// field offsets in go_asm.h). Nonzeros are decoded eight at a time, one
// group of eight lanes per ZMM register; group t's lane k is nonzero
// 8t+k.
type sjltDecode struct {
	tab    *uint64 // per group: block starts, sizes, reciprocals and their high halves, 8 words each
	groups int     // ⌈s/8⌉
	stride int     // bytes of raw words per column, 8s
	tail   uint64  // opmask of the last group's nonzeros
	mask   uint64  // block size − 1, when pow2
	pow2   uint64  // 1 when every block is the same power of two tall: u mod q is u & mask
	scale  float64 // the nonzeros' magnitude 1/√s
	i0, d1 int     // the bound block row
}

// newSJLTDecode tabulates layout l of s nonzeros for the vector decode.
func newSJLTDecode(l rng.SJLTLayout, s int, scale float64) sjltDecode {
	groups := (s + 7) / 8
	tab := cacheline.Make[uint64](groups * 32)
	for b := 0; b < groups*8; b++ {
		start, size, recip := 0, 1, rng.Reciprocal(1)
		if b < s {
			start, size, recip = l.Block(b)
		}
		t, k := b/8, b%8
		tab[t*32+k] = uint64(start)
		tab[t*32+8+k] = uint64(size)
		tab[t*32+16+k] = recip
		tab[t*32+24+k] = recip >> 32
	}
	dec := sjltDecode{tab: &tab[0], groups: groups, stride: 8 * s, tail: 0xFF >> (groups*8 - s), scale: scale}
	if mask, ok := l.Pow2(); ok {
		dec.mask, dec.pow2 = mask, 1
	}
	return dec
}

// scatterCols is axpySignCols for s-sparse columns: y += a[c]·(column c
// of S) for each c in order, column c's raw words at words[c*s:(c+1)*s].
// Each word is decoded into its row and sign (rng.SJLTLayout.Place) and
// its nonzero ±scale added, times a[c], to y's row when the row lies in
// the bound block row. On the AVX-512 backend one call decodes eight
// nonzeros per register and applies them with one gather and one scatter:
// a column's nonzeros lie in distinct blocks, so no two lanes hit the
// same row. scatterWords is the reference.
func (g *Gen) scatterCols(a []float64, words []uint64, y []float64) {
	if len(words) < len(a)*g.sp || len(y) != g.d1 {
		panic(fmt.Sprintf("kernels: scatterCols of %d columns over %d words into %d rows", len(a), len(words), len(y)))
	}
	if len(a) == 0 || len(y) == 0 {
		return
	}
	if useAVX512 {
		scatterColsAVX(a, words, y, &g.dec)
		return
	}
	for c, ac := range a {
		g.scatterWords(ac, words[c*g.sp:(c+1)*g.sp], y)
	}
}

// scatterRows is axpySignRows for s-sparse columns: row b's raw words are
// words[b*s:(b+1)*s].
func (g *Gen) scatterRows(words []uint64, off, cols []int, vals []float64, ahat *dense.Matrix) {
	checkRows("scatterRows", off, cols, vals, ahat)
	if len(words) < (len(off)-1)*g.sp || ahat.Rows != g.d1 {
		panic(fmt.Sprintf("kernels: scatterRows of %d rows over %d words", len(off)-1, len(words)))
	}
	if g.d1 == 0 || off[0] == off[len(off)-1] {
		return
	}
	if useAVX512 {
		scatterRowsAVX(words, off, cols, vals, ahat.Data, ahat.Stride, &g.dec)
		return
	}
	g.scatterRowsGo(words, off, cols, vals, ahat)
}

// scatterRowsGo is scatterRows in Go: one scatterWords per entry.
func (g *Gen) scatterRowsGo(words []uint64, off, cols []int, vals []float64, ahat *dense.Matrix) {
	for b := 0; b+1 < len(off); b++ {
		col := words[b*g.sp : (b+1)*g.sp]
		for e := off[b]; e < off[b+1]; e++ {
			g.scatterWords(vals[e], col, ahat.Col(cols[e]))
		}
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
