package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// dirty overwrites m with NaNs, infinities, signed zeros and garbage bit
// patterns, everything Execute must not let through.
func dirty(m *dense.Matrix) {
	junk := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -7.5,
		math.Float64frombits(0x7ff8dead0000beef), math.SmallestNonzeroFloat64}
	for k := range m.Data {
		m.Data[k] = junk[k%len(junk)]
	}
}

// withEmptySlabs returns an m×n matrix whose columns [n/4, n/2) and rows
// [m/2, m) hold no entry, so a uniform column grid has empty slabs and
// every slab has empty rows.
func withEmptySlabs(m, n int, seed int64) *sparse.CSC {
	src := sparse.RandomUniform(m/2, n, 0.15, seed)
	coo := sparse.NewCOO(m, n, src.NNZ())
	for j := 0; j < n; j++ {
		if j >= n/4 && j < n/2 {
			continue
		}
		rows, vals := src.ColView(j)
		for t, i := range rows {
			coo.Append(i, j, vals[t])
		}
	}
	return coo.ToCSC()
}

// countdownCtx is a context whose Err turns to Canceled after a fixed
// number of calls: the workers poll it between tasks, so an Execute on it
// stops after some of its tasks have run, at a deterministic point when
// there is one worker.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(calls)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestExecuteOverwritesDirtyOutput pins that Execute's result does not
// depend on what Â held before: each task zeroes its own cell, so the
// tasks together must cover all of Â. Â is pre-filled with NaNs and
// garbage and the result compared bit for bit with a one-worker plan's
// into a zeroed matrix, for every scheduler, both kernels, the dense,
// ±1 and sparse families and 1, 2 and 4 workers, with a BlockD that does
// not divide d and a matrix whose uniform grid has empty slabs. A
// cancelled ExecuteContext that leaves Â half written is followed by a
// full Execute into the same matrix.
func TestExecuteOverwritesDirtyOutput(t *testing.T) {
	const d = 23
	a := withEmptySlabs(60, 40, 11)
	dists := []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.SJLT, rng.CountSketch}
	for _, sch := range []Scheduler{SchedWeighted, SchedNoSteal, SchedUniform} {
		for _, alg := range []Algorithm{Alg3, Alg4} {
			for _, dist := range dists {
				opts := Options{Algorithm: alg, Dist: dist, Sched: sch, Seed: 3, BlockD: 7, BlockN: 5, Sparsity: 4}
				ref := opts
				ref.Workers = 1
				want := dense.NewMatrix(d, a.N)
				mustExecute(t, mustPlan(t, a, d, ref), want)
				for _, workers := range []int{1, 2, 4} {
					opts.Workers = workers
					name := fmt.Sprintf("%v/%v/%v/workers=%d", sch, alg, dist, workers)
					p := mustPlan(t, a, d, opts)
					got := dense.NewMatrix(d, a.N)
					dirty(got)
					mustExecute(t, p, got)
					if !sameBits(got, want) {
						t.Fatalf("%s: Execute into a dirty Â differs from a zeroed one", name)
					}

					dirty(got)
					ctx := newCountdownCtx(int64(p.Stats().Tasks / 2))
					if _, err := p.ExecuteContext(ctx, got); !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: cancelled ExecuteContext returned %v", name, err)
					}
					mustExecute(t, p, got)
					if !sameBits(got, want) {
						t.Fatalf("%s: Execute after a cancelled round differs from a zeroed one", name)
					}
				}
			}
		}
	}
}
