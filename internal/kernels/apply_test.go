package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// TestBackendReport logs which backend the package's equivalence tests
// ran on and the CPUID bits behind the choice: the TestAVX512* tests skip
// where the CPU lacks AVX-512, so a green run alone does not say they ran.
func TestBackendReport(t *testing.T) {
	t.Logf("kernels backend: useAVX512=%v; %s", useAVX512, rng.Backend())
}

// applyHeights are the block-row heights the apply routines are checked
// at: one row, under, at and over a ZMM register of eight, a 64-row sign
// word and a strip of eight registers, and two and four words.
var applyHeights = []int{1, 7, 8, 63, 64, 65, 128, 129, 256, 257}

// randWords returns n random raw words.
func randWords(r *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.Uint64()
	}
	return w
}

// randVals returns n multipliers: testMultipliers' stored zeros, −0.0,
// subnormals and extreme binades, mixed with ordinary values.
func randVals(r *rand.Rand, n int) []float64 {
	as := testMultipliers(r)
	v := make([]float64, n)
	for i := range v {
		if r.Intn(2) == 0 {
			v[i] = as[r.Intn(len(as))]
		} else {
			v[i] = r.NormFloat64()
		}
	}
	return v
}

// randGroup returns the offsets and entries of a group of rows slab rows
// over n1 columns: rows with no entry, one, and many (up to all n1), the
// columns of a row ascending, and the same column in many rows.
func randGroup(r *rand.Rand, rows, n1 int) (off, cols []int, vals []float64) {
	off = []int{0}
	for b := 0; b < rows; b++ {
		k := []int{0, 1, 1, 2, r.Intn(n1 + 1)}[r.Intn(5)]
		for _, c := range r.Perm(n1)[:min(k, n1)] {
			cols = append(cols, c)
		}
		row := cols[off[b]:]
		for i := 1; i < len(row); i++ { // insertion sort: rows are short
			for j := i; j > 0 && row[j] < row[j-1]; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		off = append(off, len(cols))
	}
	return off, cols, randVals(r, len(cols))
}

// randView returns a d1×n1 view with testVector contents inside a taller
// matrix, so a write past a column's d1 rows lands in a neighbour and
// shows up in sameView.
func randView(r *rand.Rand, d1, n1 int) (*dense.Matrix, *dense.Matrix) {
	full := dense.NewMatrix(d1+5, n1)
	copy(full.Data, testVector(r, len(full.Data)))
	return full, full.View(2, 0, d1, n1)
}

func requireSameMatrix(t *testing.T, what string, got, want *dense.Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: [%d] = %x (%g), %x (%g) in the Go loops", what, i,
				math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
		}
	}
}

// TestAVX512SignColsMatchGo checks the one-call ±1 update of many
// columns against one axpySignGo per column.
func TestAVX512SignColsMatchGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(21))
	for _, d1 := range applyHeights {
		w := (d1 + 63) / 64
		for _, cols := range []int{1, 2, 7, 30} {
			a, words := randVals(r, cols), randWords(r, cols*w)
			y := testVector(r, d1)
			got := append(append([]float64(nil), y...), guard)
			want := append([]float64(nil), y...)
			signColsAVX(a, words, got[:d1])
			for c := range a {
				axpySignGo(a[c], words[c*w:(c+1)*w], want)
			}
			requireSameBits(t, fmt.Sprintf("signColsAVX %d columns", cols), d1, a[0], got[:d1], want)
			if got[d1] != guard {
				t.Fatalf("signColsAVX d1=%d: wrote past y", d1)
			}
		}
	}
}

// TestAVX512RowGroupsMatchGo checks the dense and ±1 row-group updates of
// Algorithm 4 against one Go update per entry, over groups with empty
// rows, rows with many entries and columns shared by many rows.
func TestAVX512RowGroupsMatchGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(22))
	for _, d1 := range applyHeights {
		for _, rows := range []int{1, 4, 33} {
			n1 := 1 + r.Intn(12)
			off, cols, vals := randGroup(r, rows, n1)
			full, view := randView(r, d1, n1)
			wantFull := full.Clone()
			wantView := wantFull.View(2, 0, d1, n1)

			x := testVector(r, rows*d1)
			axpyRowsAVX(x, off, cols, vals, view.Data, view.Stride, d1)
			axpyRowsGo(x, off, cols, vals, wantView)
			requireSameMatrix(t, fmt.Sprintf("axpyRowsAVX d1=%d rows=%d", d1, rows), full, wantFull)

			words := randWords(r, rows*((d1+63)/64))
			signRowsAVX(words, off, cols, vals, view.Data, view.Stride, d1)
			axpySignRowsGo(words, off, cols, vals, wantView)
			requireSameMatrix(t, fmt.Sprintf("signRowsAVX d1=%d rows=%d", d1, rows), full, wantFull)
		}
	}
}

// sjltCases are the sparse layouts checked: CountSketch and SJLT with
// s ∈ {1, 3, 8, 30} at d = 64 (power-of-two blocks at s = 1 and 8) and
// d = 900 (uneven blocks but at s = 1).
var sjltCases = []struct {
	dist rng.Distribution
	d, s int
}{
	{rng.CountSketch, 64, 1}, {rng.CountSketch, 900, 1},
	{rng.SJLT, 64, 1}, {rng.SJLT, 64, 3}, {rng.SJLT, 64, 8}, {rng.SJLT, 64, 30},
	{rng.SJLT, 900, 1}, {rng.SJLT, 900, 3}, {rng.SJLT, 900, 8}, {rng.SJLT, 900, 30},
}

// sjltBlocks returns the block rows (i0, d1) a d-row S is checked at: the
// whole of it, and blocks of the applyHeights starting past row 0, where
// most nonzeros fall outside the block and must be dropped.
func sjltBlocks(r *rand.Rand, d int) [][2]int {
	blocks := [][2]int{{0, d}}
	for _, d1 := range applyHeights {
		if d1 < d {
			blocks = append(blocks, [2]int{1 + r.Intn(d-d1), d1})
		}
	}
	return blocks
}

// TestAVX512ScatterMatchesGo checks the vector SJLT decode and scatter of
// both kernels against scatterWords, nonzero by nonzero.
func TestAVX512ScatterMatchesGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(23))
	for _, tc := range sjltCases {
		g := NewGen(rng.NewSampler(rng.NewBatchXoshiro(1), tc.dist), tc.d, tc.d, tc.s)
		for _, blk := range sjltBlocks(r, tc.d) {
			i0, d1 := blk[0], blk[1]
			where := fmt.Sprintf("%v d=%d s=%d block [%d, %d)", tc.dist, tc.d, g.sp, i0, i0+d1)
			if !g.bind(uint64(i0), d1, 1) {
				t.Fatalf("%s: bind refused", where)
			}
			cols := 1 + r.Intn(20)
			a, words := randVals(r, cols), randWords(r, cols*g.sp)
			y := testVector(r, d1)
			got := append(append([]float64(nil), y...), guard)
			want := append([]float64(nil), y...)
			scatterColsAVX(a, words, got[:d1], &g.dec)
			for c := range a {
				g.scatterWords(a[c], words[c*g.sp:(c+1)*g.sp], want)
			}
			requireSameBits(t, "scatterColsAVX "+where, d1, a[0], got[:d1], want)
			if got[d1] != guard {
				t.Fatalf("scatterColsAVX %s: wrote past y", where)
			}

			rows, n1 := 1+r.Intn(40), 1+r.Intn(10)
			off, acols, vals := randGroup(r, rows, n1)
			rw := randWords(r, rows*g.sp)
			full, view := randView(r, d1, n1)
			wantFull := full.Clone()
			scatterRowsAVX(rw, off, acols, vals, view.Data, view.Stride, &g.dec)
			g.scatterRowsGo(rw, off, acols, vals, wantFull.View(2, 0, d1, n1))
			requireSameMatrix(t, "scatterRowsAVX "+where, full, wantFull)
		}
	}
}

// oracle computes Âsub = S[i0:i0+d1, :]·A for a generator of (dist, d,
// s) over a BatchXoshiro seeded with seed, one column of S at a time from
// the single-column draws (SetState and Fill, FillSJLTColumn) and one add
// per element and nonzero of S in ascending sparse-row order: the bits
// every kernel must produce, however it batches the draws and the adds.
func oracle(a *sparse.CSC, dist rng.Distribution, d, s, i0, d1 int, seed uint64) *dense.Matrix {
	smp := rng.NewSampler(rng.NewBatchXoshiro(seed), dist)
	out := dense.NewMatrix(d1, a.N)
	col := make([]float64, d1)
	sp := rng.SJLTSparsity(dist, s, d)
	pos, val := make([]int, sp), make([]float64, sp)
	for k := 0; k < a.N; k++ {
		rows, vals := a.ColView(k)
		y := out.Col(k)
		for t, j := range rows {
			if rng.IsSparse(dist) {
				smp.FillSJLTColumn(uint64(j), d, sp, rng.SJLTScale(sp), pos, val)
				for b, p := range pos {
					if p >= i0 && p < i0+d1 {
						y[p-i0] += float64(val[b] * vals[t])
					}
				}
				continue
			}
			smp.SetState(uint64(i0), uint64(j))
			smp.Fill(col)
			for i := range y {
				y[i] += float64(col[i] * vals[t])
			}
		}
	}
	return out
}

// kernelInput returns an m×n1 CSC slab whose columns hold up to 3·chunk
// entries, so that slab-wide draws of chunk columns split them, with a
// few rows that hold an entry in every column; the values include stored
// zeros and −0.0.
func kernelInput(r *rand.Rand, m, n1, chunk int) *sparse.CSC {
	coo := sparse.NewCOO(m, n1, 0)
	as := testMultipliers(r)
	for k := 0; k < n1; k++ {
		seen := map[int]bool{}
		for e := r.Intn(3 * chunk); e > 0; e-- {
			seen[r.Intn(m)] = true
		}
		for _, i := range []int{0, m / 2, m - 1} {
			seen[i] = true
		}
		for i := range seen {
			v := r.NormFloat64()
			if r.Intn(4) == 0 {
				v = as[r.Intn(len(as))]
			}
			coo.Append(i, k, v)
		}
	}
	return coo.ToCSC()
}

// TestKernelsMatchColumnOracle checks both kernels, on whichever backend
// the build selects, against the one-column-at-a-time oracle bit for bit:
// every generated kind, the block heights of applyHeights with i0 > 0,
// the sparse layouts of sjltCases with BlockD < d, slab-wide draws of the
// default size and of 5 columns, A columns split across draws and sparse
// rows with an entry in every column.
func TestKernelsMatchColumnOracle(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	type dcase struct {
		dist rng.Distribution
		d, s int
	}
	cases := []dcase{{rng.Uniform11, 300, 0}, {rng.Rademacher, 300, 0}}
	for _, tc := range sjltCases {
		cases = append(cases, dcase{tc.dist, tc.d, tc.s})
	}
	for _, tc := range cases {
		for _, d1 := range applyHeights {
			if d1 > tc.d {
				continue
			}
			i0 := r.Intn(tc.d - d1 + 1)
			for _, chunk := range []int{0, 5} {
				seed := r.Uint64()
				newG := func() *Gen {
					g := NewGen(rng.NewSampler(rng.NewBatchXoshiro(seed), tc.dist), tc.d, d1, tc.s)
					if chunk > 0 {
						g.chunk = chunk
					}
					return g
				}
				g := newG()
				n := max(g.chunk, 2*rng.MaxColumns) // dense draws come in groups of rng.MaxColumns
				a := kernelInput(r, 3*n+20, 1+r.Intn(12), n)
				want := oracle(a, tc.dist, tc.d, tc.s, i0, d1, seed)
				where := fmt.Sprintf("%v d=%d s=%d block [%d, %d) chunk %d", tc.dist, tc.d, tc.s, i0, i0+d1, chunk)
				ah3 := dense.NewMatrix(d1, a.N)
				Kernel3(ah3, a, g, uint64(i0), nil)
				requireSameMatrix(t, "Kernel3 "+where, ah3, want)
				ah4 := dense.NewMatrix(d1, a.N)
				Kernel4(ah4, oneSlab(a), newG(), uint64(i0), nil)
				requireSameMatrix(t, "Kernel4 "+where, ah4, want)
			}
		}
	}
}
