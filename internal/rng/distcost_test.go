package rng

import "testing"

func TestDistCostBaseline(t *testing.T) {
	if c := DistCost(Uniform11); c != 1 {
		t.Errorf("DistCost(Uniform11) = %g, want exactly 1", c)
	}
}

func TestDistCostPositiveAndClamped(t *testing.T) {
	for _, d := range []Distribution{Uniform11, Rademacher, Gaussian, ScaledInt, Junk, SJLT, CountSketch} {
		c := DistCost(d)
		if c < 1.0/64 || c > 64 {
			t.Errorf("DistCost(%v) = %g outside clamp [1/64, 64]", d, c)
		}
	}
}

func TestDistCostUnknownDistribution(t *testing.T) {
	if c := DistCost(Distribution(-1)); c != 1 {
		t.Errorf("DistCost(-1) = %g, want 1", c)
	}
	if c := DistCost(Distribution(99)); c != 1 {
		t.Errorf("DistCost(99) = %g, want 1", c)
	}
}

// The ordering the §III-B cost model relies on: the fused 1-bit Rademacher
// path must measure cheaper than the ziggurat Gaussian, by a wide margin.
func TestDistCostRademacherCheaperThanGaussian(t *testing.T) {
	r, g := DistCost(Rademacher), DistCost(Gaussian)
	if r >= g {
		t.Errorf("DistCost(Rademacher)=%g not below DistCost(Gaussian)=%g", r, g)
	}
}

// TestDistCostStability is the regression test for the pinned one-time
// measurement: two in-process invocations of the measurement pass must
// agree on every relative cost within the documented variance bound. The
// OS-thread pin plus best-of-reps timing is what keeps this tight even on
// a loaded CI box; the bound here (4x either way) is deliberately far
// outside the documented ±25% steady-state jitter so only a broken
// measurement discipline — not a busy neighbour — can trip it, while a
// regression to wall-clock-of-everything timing (orders of magnitude under
// load) still fails.
func TestDistCostStability(t *testing.T) {
	t1 := measureDistCostTable()
	t2 := measureDistCostTable()
	for d := Uniform11; d <= CountSketch; d++ {
		a, b := t1[d], t2[d]
		if a <= 0 || b <= 0 {
			t.Fatalf("%v: non-positive measured cost (%g, %g)", d, a, b)
		}
		ratio := a / b
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%v: relative cost drifted %g -> %g (ratio %.2f) across two in-process measurements", d, a, b, ratio)
		}
	}
	// The memoised table must itself be one of the same measurement's
	// outputs: Uniform11 exactly 1, everything clamped.
	if got := DistCost(Uniform11); got != 1 {
		t.Errorf("memoised DistCost(Uniform11) = %g, want 1", got)
	}
}

// TestDistCostSparseFamilyOrdering: the per-nonzero cost of the sparse
// family includes the per-column seeding, so it must be positive
// and — like every cost — clamped; CountSketch (one word per column, all
// repositioning overhead) is the family's expensive-per-word end.
func TestDistCostSparseFamilyOrdering(t *testing.T) {
	sj, cs := DistCost(SJLT), DistCost(CountSketch)
	if sj <= 0 || cs <= 0 {
		t.Fatalf("sparse family costs (%g, %g) not positive", sj, cs)
	}
	if sj > cs {
		t.Errorf("DistCost(SJLT)=%g above DistCost(CountSketch)=%g; amortising the reseed over s words should not cost more per word", sj, cs)
	}
}
