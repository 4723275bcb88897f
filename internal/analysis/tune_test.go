package analysis

import (
	"testing"
	"testing/quick"

	"sketchsp/internal/sparse"
)

func TestPredictAlg4SamplesExact(t *testing.T) {
	// Cross-check the O(nnz) predictor against the blocked structure.
	f := func(seed int64, bnRaw uint8) bool {
		a := sparse.RandomUniform(60, 40, 0.08, seed)
		bn := 1 + int(bnRaw)%40
		d := 24
		want := int64(0)
		blocked := sparse.NewBlockedCSRPartition(a, sparse.UniformColSplit(a.N, bn), 1)
		for _, blk := range blocked.Blocks {
			for r := range blk.Rows {
				if blk.Off[r+1] > blk.Off[r] {
					want += int64(d)
				}
			}
		}
		return PredictAlg4Samples(a, d, bn) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPredictAlg4MatchesKernelCount(t *testing.T) {
	a := sparse.RandomUniform(300, 90, 0.04, 7)
	d := 60
	bn := 17
	// TraceAlg4 counts the same quantity per (block-row, slab) pair; with
	// a single block row they must agree.
	tr := TraceAlg4(a, d, d, bn, NewCache(1<<12))
	if got := PredictAlg4Samples(a, d, bn); got != tr.Samples {
		t.Fatalf("predictor %d != traced %d", got, tr.Samples)
	}
}

func TestPredictSamplesMonotoneInWidth(t *testing.T) {
	// Wider slabs can only merge nonempty-row sets: samples must be
	// non-increasing as bn doubles through divisors of the count.
	a := sparse.RandomUniform(500, 128, 0.03, 9)
	d := 32
	prev := int64(1 << 62)
	for _, bn := range []int{8, 16, 32, 64, 128} {
		s := PredictAlg4Samples(a, d, bn)
		if s > prev {
			t.Fatalf("samples grew from %d to %d at bn=%d", prev, s, bn)
		}
		prev = s
	}
}

func TestPredictAlg3Samples(t *testing.T) {
	a := sparse.RandomUniform(100, 50, 0.1, 3)
	if got := PredictAlg3Samples(a, 30); got != int64(30*a.NNZ()) {
		t.Fatalf("Alg3 samples %d", got)
	}
	// Alg4 never generates more than Alg3.
	if PredictAlg4Samples(a, 30, 10) > PredictAlg3Samples(a, 30) {
		t.Fatal("Alg4 predictor exceeds Alg3")
	}
}

func TestTuneBlockNRanksByCost(t *testing.T) {
	a := sparse.RandomUniform(2000, 256, 0.01, 5)
	res := TuneBlockN(a, 3*a.N, 0.5, nil)
	if len(res) == 0 {
		t.Fatal("no candidates evaluated")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Cost < res[i-1].Cost {
			t.Fatalf("results not sorted at %d", i)
		}
	}
	// With h > 0 the winner should favour fewer samples: its sample count
	// must be within the candidate minimum.
	minSamples := res[0].Samples
	for _, r := range res {
		if r.Samples < minSamples {
			minSamples = r.Samples
		}
	}
	if res[0].Samples != minSamples {
		t.Fatalf("winner generates %d samples, best candidate %d", res[0].Samples, minSamples)
	}
}

func TestTuneBlockNSkipsBadCandidates(t *testing.T) {
	a := sparse.RandomUniform(50, 20, 0.2, 1)
	res := TuneBlockN(a, 40, 1, []int{-3, 0, 10, 500})
	if len(res) != 1 || res[0].BlockN != 10 {
		t.Fatalf("candidate filtering wrong: %+v", res)
	}
}

func TestDefaultBlockNCandidates(t *testing.T) {
	c := DefaultBlockNCandidates(100)
	if len(c) == 0 || c[len(c)-1] != 100 {
		t.Fatalf("candidates %v must end at n", c)
	}
	if DefaultBlockNCandidates(0) != nil {
		t.Fatal("n=0 should give nil")
	}
	if c := DefaultBlockNCandidates(5); len(c) == 0 {
		t.Fatalf("tiny n gave no candidates: %v", c)
	}
}

func TestEstimateHFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement in -short mode")
	}
	h := EstimateH(1<<18, 1)
	if h <= 0 || h > 1e3 {
		t.Fatalf("implausible h = %g", h)
	}
}
