package core

import (
	"math"
	"sync"
	"testing"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

func mustPlan(t testing.TB, a *sparse.CSC, d int, opts Options) *Plan {
	t.Helper()
	p, err := NewPlan(a, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func mustExecute(t testing.TB, p *Plan, ahat *dense.Matrix) Stats {
	t.Helper()
	st, err := p.Execute(ahat)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sameBits reports bit-exact equality, distinguishing values Equal's
// tolerance would conflate (and catching -0 vs +0 drift).
func sameBits(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ac, bc := a.Col(j), b.Col(j)
		for i := range ac {
			if math.Float64bits(ac[i]) != math.Float64bits(bc[i]) {
				return false
			}
		}
	}
	return true
}

func TestNewPlanValidation(t *testing.T) {
	a := sparse.RandomUniform(40, 10, 0.2, 1)
	if _, err := NewPlan(nil, 5, Options{}); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := NewPlan(a, 0, Options{}); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewPlan(a, -2, Options{}); err == nil {
		t.Error("d<0 accepted")
	}
	if _, err := NewPlan(a, 5, Options{BlockN: -1}); err == nil {
		t.Error("negative BlockN accepted")
	}
}

func TestPlanExecuteErrors(t *testing.T) {
	a := sparse.RandomUniform(40, 10, 0.2, 1)
	p := mustPlan(t, a, 20, Options{Workers: 1})
	if _, err := p.Execute(nil); err == nil {
		t.Error("nil output accepted")
	}
	if _, err := p.Execute(dense.NewMatrix(19, 10)); err == nil {
		t.Error("wrong row count accepted")
	}
	if _, err := p.Execute(dense.NewMatrix(20, 11)); err == nil {
		t.Error("wrong column count accepted")
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Execute(dense.NewMatrix(20, 10)); err == nil {
		t.Error("Execute after Close accepted")
	}
}

// The plan path must be bit-identical to the one-shot Sketcher path under
// the same configuration — it is the same checkpointed computation with the
// setup hoisted out.
func TestPlanMatchesSketcher(t *testing.T) {
	a := sparse.RandomUniform(300, 40, 0.08, 3)
	d := 3 * a.N
	for _, alg := range []Algorithm{Alg3, Alg4} {
		for _, dist := range []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.Gaussian, rng.ScaledInt} {
			opts := Options{Algorithm: alg, Dist: dist, Seed: 11, Workers: 1}
			sk := mustSketcher(t, d, opts)
			want, _ := sk.Sketch(a)

			p := mustPlan(t, a, d, opts)
			got := dense.NewMatrix(d, a.N)
			mustExecute(t, p, got)
			if !sameBits(want, got) {
				t.Errorf("%v/%v: plan output differs from Sketcher", alg, dist)
			}
		}
	}
}

// Satellite regression test: Â must be bit-identical for Workers ∈ {1,2,8}
// and for plan-reuse vs fresh-sketch paths, for both the xoshiro-checkpoint
// and Philox sources. Sketch bits depend on (seed, d, b_d, distribution,
// source) — never on the worker count, nor on how many times a plan has
// been executed.
func TestPlanReproducibilityAcrossWorkersAndReuse(t *testing.T) {
	a := sparse.RandomUniform(500, 60, 0.05, 7)
	d := 3 * a.N
	for _, src := range []rng.SourceKind{rng.SourceBatchXoshiro, rng.SourcePhilox} {
		for _, alg := range []Algorithm{Alg3, Alg4} {
			base := Options{Algorithm: alg, Source: src, Seed: 99, Workers: 1, BlockD: 50, BlockN: 13}
			sk := mustSketcher(t, d, base)
			ref, _ := sk.Sketch(a)

			for _, workers := range []int{1, 2, 8} {
				opts := base
				opts.Workers = workers
				p := mustPlan(t, a, d, opts)
				got := dense.NewMatrix(d, a.N)
				// Reuse: repeated executes of one plan must not drift.
				for rep := 0; rep < 3; rep++ {
					mustExecute(t, p, got)
					if !sameBits(ref, got) {
						t.Fatalf("%v/%v workers=%d rep=%d: Â differs from fresh sequential sketch",
							src, alg, workers, rep)
					}
				}
			}
		}
	}
}

func TestPlanStatsAccounting(t *testing.T) {
	a := sparse.RandomUniform(400, 50, 0.1, 5)
	d := 2 * a.N
	p := mustPlan(t, a, d, Options{Algorithm: Alg4, Workers: 2, Timed: true})
	ps := p.Stats()
	if ps.Algorithm != Alg4 {
		t.Errorf("Algorithm = %v", ps.Algorithm)
	}
	if ps.ConvertTime <= 0 {
		t.Error("Alg4 plan reports no ConvertTime")
	}
	if ps.PlanTime < ps.ConvertTime {
		t.Error("PlanTime < ConvertTime")
	}
	if ps.Tasks <= 0 || ps.Workers < 1 || ps.BlockD <= 0 || ps.BlockN <= 0 {
		t.Errorf("implausible plan stats: %+v", ps)
	}
	ahat := dense.NewMatrix(d, a.N)
	for rep := 0; rep < 2; rep++ {
		st := mustExecute(t, p, ahat)
		// The accounting split: conversion is charged once at plan time,
		// never folded into an execute.
		if st.ConvertTime != 0 {
			t.Errorf("rep %d: Execute ConvertTime = %v, want 0", rep, st.ConvertTime)
		}
		if st.Samples <= 0 || st.SampleTime <= 0 || st.Total <= 0 {
			t.Errorf("rep %d: implausible execute stats: %+v", rep, st)
		}
		if st.Flops != 2*int64(d)*int64(a.NNZ()) {
			t.Errorf("rep %d: Flops = %d", rep, st.Flops)
		}
	}
}

// The one-shot wrapper still reports the conversion it paid for.
func TestSketcherWrapperKeepsConvertTime(t *testing.T) {
	a := sparse.RandomUniform(400, 50, 0.1, 5)
	sk := mustSketcher(t, 2*a.N, Options{Algorithm: Alg4, Workers: 1})
	_, st := sk.Sketch(a)
	if st.ConvertTime <= 0 {
		t.Error("Sketcher Alg4 stats lost ConvertTime")
	}
	if st.Total < st.ConvertTime {
		t.Error("Sketcher Total < ConvertTime")
	}
}

func TestPlanAutoResolvesAlgorithm(t *testing.T) {
	a := sparse.RandomUniform(400, 50, 0.1, 2)
	p := mustPlan(t, a, 2*a.N, Options{Algorithm: AlgAuto, Workers: 1})
	got := p.Stats().Algorithm
	if got != Alg3 && got != Alg4 {
		t.Fatalf("plan left Algorithm unresolved: %v", got)
	}
	if p.Options().Algorithm != got {
		t.Error("Options().Algorithm disagrees with Stats().Algorithm")
	}
	ahat := dense.NewMatrix(p.D(), p.N())
	mustExecute(t, p, ahat)
}

// TuneBlockN may change b_n but never the sketch values.
func TestPlanTuneBlockN(t *testing.T) {
	a := sparse.RandomUniform(600, 80, 0.05, 9)
	d := 2 * a.N
	ref := mustPlan(t, a, d, Options{Algorithm: Alg4, Seed: 4, Workers: 1})
	tuned := mustPlan(t, a, d, Options{Algorithm: Alg4, Seed: 4, Workers: 1, TuneBlockN: true})
	if !tuned.Stats().TunedBlockN {
		t.Fatal("TuneBlockN plan did not report a tuned b_n")
	}
	want := dense.NewMatrix(d, a.N)
	got := dense.NewMatrix(d, a.N)
	mustExecute(t, ref, want)
	mustExecute(t, tuned, got)
	if !sameBits(want, got) {
		t.Error("tuned b_n changed sketch values")
	}
}

// Concurrent Execute calls on one plan must serialise safely and each
// produce the full correct sketch.
func TestPlanConcurrentExecute(t *testing.T) {
	a := sparse.RandomUniform(300, 40, 0.1, 6)
	d := 2 * a.N
	p := mustPlan(t, a, d, Options{Workers: 4})
	ref := dense.NewMatrix(d, a.N)
	mustExecute(t, p, ref)

	const callers = 4
	outs := make([]*dense.Matrix, callers)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		outs[c] = dense.NewMatrix(d, a.N)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = p.Execute(outs[c])
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if !sameBits(ref, outs[c]) {
			t.Errorf("caller %d got a different sketch", c)
		}
	}
}

// ScaledInt planning pre-scales a private clone; the caller's matrix must
// be left untouched.
func TestPlanScaledIntDoesNotMutateInput(t *testing.T) {
	a := sparse.RandomUniform(200, 30, 0.1, 8)
	before := append([]float64(nil), a.Val...)
	p := mustPlan(t, a, 2*a.N, Options{Dist: rng.ScaledInt, Workers: 1})
	mustExecute(t, p, dense.NewMatrix(p.D(), p.N()))
	for i, v := range a.Val {
		if v != before[i] {
			t.Fatalf("input value %d mutated: %g -> %g", i, before[i], v)
		}
	}
}

func TestPlanEmptyMatrix(t *testing.T) {
	empty, err := sparse.NewCSC(10, 0, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, empty, 5, Options{})
	st := mustExecute(t, p, dense.NewMatrix(5, 0))
	if st.Samples != 0 {
		t.Errorf("empty matrix generated %d samples", st.Samples)
	}
}

// TestExecuteZeroAlloc is the zero-alloc gate of every kernel path:
// steady-state Plan.Execute must not allocate for any distribution (the
// dense fills, the ±1 sign words and the sparse family's raw words), under
// Algorithms 3 and 4, on 1, 2 and 4 workers. The small blocks give every
// worker tasks of its own.
func TestExecuteZeroAlloc(t *testing.T) {
	a := sparse.RandomUniform(200, 30, 0.1, 23)
	const d = 32
	dists := []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.Gaussian, rng.ScaledInt, rng.Junk, rng.SJLT, rng.CountSketch}
	for _, dist := range dists {
		for _, alg := range []Algorithm{Alg3, Alg4} {
			for _, workers := range []int{1, 2, 4} {
				p := mustPlan(t, a, d, Options{Algorithm: alg, Dist: dist, Sparsity: 5, Workers: workers, Seed: 9, BlockD: 12, BlockN: 8})
				ahat := dense.NewMatrix(d, a.N)
				mustExecute(t, p, ahat) // warm the pool
				avg := testing.AllocsPerRun(20, func() {
					if _, err := p.Execute(ahat); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("%v %v workers=%d: Execute allocates %.1f objects/op, want 0", dist, alg, workers, avg)
				}
			}
		}
	}
}
