package core

import (
	"math"
	"testing"

	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Golden regression pins: the exact float64 bit patterns of sketches for
// fixed seeds. Sketches are a documented deterministic function of
// (seed, d, blocking, distribution, source); any change to the RNG stream,
// checkpoint mixing, distribution transforms, or kernel accumulation order
// silently breaks every stored sketch downstream — these tests make such a
// change loud. If a break is INTENTIONAL (e.g. a new RNG version), bump the
// constants and call it out in the release notes.
func TestGoldenSketchFingerprints(t *testing.T) {
	t.Logf("AVX-512 backend: %v", rng.AVX512())
	a := sparse.RandomUniform(50, 12, 0.2, 99)
	if a.NNZ() != 144 {
		t.Fatalf("workload drifted: nnz=%d, want 144 (math/rand stream changed?)", a.NNZ())
	}
	cases := []struct {
		dist               rng.Distribution
		at00, at2911, ssum uint64
	}{
		{rng.Uniform11, 0x3fdab74c0873cf83, 0xbfd85879929c09a8, 0x4079b12d600f5180},
		{rng.Rademacher, 0x4000cefb5282f262, 0x3ff1a56ae1c345a8, 0x40964022661a3cd4},
		{rng.ScaledInt, 0x3fe6a1540aa04bbc, 0x3ffa130f401ce88f, 0x407d1baaaed0d8a6},
		{rng.Gaussian, 0x3fec37cbf6a87dba, 0x400ea124c2fad153, 0x4095c2e2281ea5ef},
	}
	for _, c := range cases {
		sk := mustSketcher(t, 30, Options{
			Dist: c.dist, Seed: 12345, BlockD: 11, BlockN: 5, Workers: 1,
		})
		ahat, _ := sk.Sketch(a)
		var s float64
		for _, v := range ahat.Data {
			s += v * v
		}
		if got := math.Float64bits(ahat.At(0, 0)); got != c.at00 {
			t.Errorf("%v: Â[0,0] bits %#x, want %#x", c.dist, got, c.at00)
		}
		if got := math.Float64bits(ahat.At(29, 11)); got != c.at2911 {
			t.Errorf("%v: Â[29,11] bits %#x, want %#x", c.dist, got, c.at2911)
		}
		if got := math.Float64bits(s); got != c.ssum {
			t.Errorf("%v: Σ entries² bits %#x, want %#x", c.dist, got, c.ssum)
		}
	}
}

func TestGoldenPhiloxFingerprint(t *testing.T) {
	a := sparse.RandomUniform(50, 12, 0.2, 99)
	sk := mustSketcher(t, 30, Options{
		Source: rng.SourcePhilox, Seed: 7, BlockD: 11, BlockN: 5, Workers: 1,
	})
	ahat, _ := sk.Sketch(a)
	if got := math.Float64bits(ahat.At(0, 0)); got != 0x3fe2a322c9c5b304 {
		t.Errorf("philox Â[0,0] bits %#x", got)
	}
	if got := math.Float64bits(ahat.At(29, 11)); got != 0xbfbb12706f7ed2dc {
		t.Errorf("philox Â[29,11] bits %#x", got)
	}
}
