package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchRows are the block-row heights the batched draws are checked at:
// under, at and over one group of four lanes and one 64-bit sign word.
var batchRows = []int{1, 3, 4, 5, 63, 64, 65, 100, 128}

// batchJS returns n column indices for a batch: random ones, a repeat
// (the same checkpoint twice in one batch) and the extremes of the range.
func batchJS(r *rand.Rand, n int) []int {
	js := make([]int, n)
	for c := range js {
		js[c] = r.Intn(1 << 20)
	}
	switch r.Intn(4) {
	case 0:
		js[n-1] = js[0]
	case 1:
		js[0] = 0
	case 2:
		js[n-1] = math.MaxInt
	}
	return js
}

// TestColumnsMatchSingleDraws is the batched draws' differential test: for
// every source and distribution, batch size and block-row height, a
// batched draw equals SetState followed by the single-column draw, once
// per column, bit for bit. It runs on whichever backend the build selects
// (make test-purego runs it on the Go loops).
func TestColumnsMatchSingleDraws(t *testing.T) {
	t.Logf("AVX-512 backend: %v", useAVX512)
	kinds := []SourceKind{SourceBatchXoshiro, SourceScalarXoshiro, SourcePhilox}
	dense := []Distribution{Uniform11, Rademacher, Gaussian, ScaledInt, Junk}
	r := rand.New(rand.NewSource(5))
	for _, kind := range kinds {
		for _, dist := range append(dense, SJLT, CountSketch) {
			t.Run(fmt.Sprintf("%v/%v", kind, dist), func(t *testing.T) {
				batch := NewSampler(NewSource(kind, 42), dist)
				single := NewSampler(NewSource(kind, 42), dist)
				for _, d1 := range batchRows {
					for n := 1; n <= MaxColumns; n++ {
						for rep := 0; rep < 3; rep++ {
							row, js := uint64(r.Intn(8)*d1), batchJS(r, n)
							where := fmt.Sprintf("d1=%d r=%d js=%v", d1, row, js)
							if IsSparse(dist) {
								checkSJLTColumns(t, where, batch, single, dist, d1, js)
								continue
							}
							checkFillColumns(t, where, batch, single, row, js, d1)
							checkRawWordsColumns(t, where, batch, single, row, js, d1)
						}
					}
				}
			})
		}
	}
}

func checkFillColumns(t *testing.T, where string, batch, single *Sampler, r uint64, js []int, d1 int) {
	t.Helper()
	got := make([]float64, len(js)*d1)
	batch.FillColumns(r, js, got)
	want := make([]float64, d1)
	for c, j := range js {
		single.SetState(r, uint64(j))
		single.Fill(want)
		for i, w := range want {
			if g := got[c*d1+i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("FillColumns %s: column %d [%d] = %g, single draw %g", where, c, i, g, w)
			}
		}
	}
}

func checkRawWordsColumns(t *testing.T, where string, batch, single *Sampler, r uint64, js []int, d1 int) {
	t.Helper()
	got := append([]uint64(nil), batch.RawWordsColumns(r, js, d1)...)
	w := (d1 + 63) / 64
	if len(got) != len(js)*w {
		t.Fatalf("RawWordsColumns %s: %d words, want %d", where, len(got), len(js)*w)
	}
	for c, j := range js {
		single.SetState(r, uint64(j))
		for i, u := range single.RawWords(d1) {
			if got[c*w+i] != u {
				t.Fatalf("RawWordsColumns %s: column %d word %d = %#x, single draw %#x", where, c, i, got[c*w+i], u)
			}
		}
	}
}

func checkSJLTColumns(t *testing.T, where string, batch, single *Sampler, dist Distribution, d int, js []int) {
	t.Helper()
	for _, req := range []int{1, 2, 3, 8, d} {
		sp := SJLTSparsity(dist, req, d)
		scale := SJLTScale(sp)
		l := NewSJLTLayout(d, sp)
		words := append([]uint64(nil), batch.SJLTWordsColumns(js, sp)...)
		if len(words) != len(js)*sp {
			t.Fatalf("SJLTWordsColumns %s s=%d: %d words, want %d", where, sp, len(words), len(js)*sp)
		}
		wantPos, wantVal := make([]int, sp), make([]float64, sp)
		for c, j := range js {
			single.FillSJLTColumn(uint64(j), d, sp, scale, wantPos, wantVal)
			for b := range wantPos {
				gp, sign := l.Place(b, words[c*sp+b])
				gv := math.Float64frombits(math.Float64bits(scale) ^ sign)
				if gp != wantPos[b] || math.Float64bits(gv) != math.Float64bits(wantVal[b]) {
					t.Fatalf("SJLTWordsColumns %s s=%d: column %d nonzero %d decodes to (%d, %g), single draw (%d, %g)",
						where, sp, c, b, gp, gv, wantPos[b], wantVal[b])
				}
			}
		}
	}
}
