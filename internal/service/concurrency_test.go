package service

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// These tests are the -race suite: N goroutines hammering the service with
// overlapping matrices, evictions forced mid-flight, and context
// cancellations. CI runs them with -race -count=2 (see Makefile `race` and
// .github/workflows/ci.yml).

// TestSingleFlightConcurrentMiss releases a herd of goroutines at one cold
// key simultaneously and asserts the single-flight invariant: exactly one
// plan is built, everyone else joins the flight and hits.
func TestSingleFlightConcurrentMiss(t *testing.T) {
	const goroutines = 32
	svc := New(Config{Capacity: 8, MaxInFlight: goroutines})
	defer svc.Close()
	a := sparse.RandomUniform(600, 60, 0.04, 3)
	d := 90
	opts := core.Options{Seed: 5, Workers: 2}

	sk, _ := core.NewSketcher(d, opts)
	want, _ := sk.Sketch(a)

	start := make(chan struct{})
	var wg sync.WaitGroup
	outs := make([]*dense.Matrix, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			outs[g] = dense.NewMatrix(d, a.N)
			_, errs[g] = svc.SketchInto(context.Background(), outs[g], a, d, opts)
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		assertBitIdentical(t, "herd", want, outs[g])
	}
	st := svc.Stats()
	if st.Builds != 1 {
		t.Fatalf("single-flight violated: %d plans built for one key", st.Builds)
	}
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("want 1 miss / %d hits, got %d / %d", goroutines-1, st.Misses, st.Hits)
	}
}

// TestConcurrentEvictionHammer drives 12 goroutines over 6 matrices through
// a 2-entry cache: every request forces churn, entries are evicted while
// sibling requests still execute on their plans, and every result must stay
// bit-identical to its reference. Refcounting is what makes this safe; a
// use-after-Close here fails loudly (ErrPlanClosed or a race report).
func TestConcurrentEvictionHammer(t *testing.T) {
	const (
		goroutines = 12
		iters      = 30
		nMatrices  = 6
	)
	svc := New(Config{Capacity: 2, MaxInFlight: 8})
	defer svc.Close()

	mats := make([]*sparse.CSC, nMatrices)
	wants := make([]*dense.Matrix, nMatrices)
	ds := make([]int, nMatrices)
	opts := core.Options{Seed: 9, Workers: 2}
	for i := range mats {
		mats[i] = sparse.RandomUniform(300+40*i, 30+5*i, 0.05, int64(i+1))
		ds[i] = 2 * mats[i].N
		sk, _ := core.NewSketcher(ds[i], opts)
		wants[i], _ = sk.Sketch(mats[i])
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				i := r.Intn(nMatrices)
				out := dense.NewMatrix(ds[i], mats[i].N)
				if _, err := svc.SketchInto(context.Background(), out, mats[i], ds[i], opts); err != nil {
					errCh <- err
					return
				}
				for j := 0; j < out.Cols; j++ {
					wc, gc := wants[i].Col(j), out.Col(j)
					for k := range wc {
						if wc[k] != gc[k] {
							errCh <- errors.New("bit mismatch under eviction churn")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Evictions == 0 {
		t.Fatal("hammer forced no evictions — capacity not stressing the cache")
	}
	if st.CachedPlans > 2 {
		t.Fatalf("cache over capacity: %d plans resident", st.CachedPlans)
	}
	t.Logf("hammer: %d hits / %d misses / %d builds / %d evictions",
		st.Hits, st.Misses, st.Builds, st.Evictions)
}

// TestRequestCancellation covers the cancellation points: dead on arrival,
// cancelled while executing (propagates into the worker pool), and
// cancelled while queued at the admission gate.
func TestRequestCancellation(t *testing.T) {
	svc := New(Config{Capacity: 4, MaxInFlight: 1})
	defer svc.Close()
	big := sparse.RandomUniform(30000, 300, 0.01, 4)
	dBig := 450
	opts := core.Options{Seed: 2, Workers: 2, BlockD: 64}
	ctxBg := context.Background()

	dead, cancel := context.WithCancel(ctxBg)
	cancel()
	if _, _, err := svc.Sketch(dead, big, dBig, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx: err = %v", err)
	}

	// Mid-execute: cancel shortly after the round starts.
	ctx2, cancel2 := context.WithCancel(ctxBg)
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel2()
	}()
	if _, _, err := svc.Sketch(ctx2, big, dBig, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execute cancel: err = %v", err)
	}

	// Queued at the gate: occupy the single slot with a long execute, then
	// cancel a second request stuck in the admission queue.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		if _, _, err := svc.Sketch(ctxBg, big, dBig, opts); err != nil {
			t.Errorf("slot holder failed: %v", err)
		}
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 })
	ctx3, cancel3 := context.WithTimeout(ctxBg, 2*time.Millisecond)
	defer cancel3()
	if _, _, err := svc.Sketch(ctx3, big, dBig, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued deadline: err = %v", err)
	}
	<-hold

	if c := svc.Stats().Cancels; c < 3 {
		t.Fatalf("cancel counter %d, want ≥ 3", c)
	}
	// The service must still serve normally after all that.
	small := sparse.RandomUniform(200, 20, 0.1, 5)
	if _, _, err := svc.Sketch(ctxBg, small, 30, opts); err != nil {
		t.Fatalf("post-cancellation request: %v", err)
	}
}

// TestOverloadShedding fills the single in-flight slot and the one queue
// slot, then asserts the next request is shed fast with ErrOverloaded.
func TestOverloadShedding(t *testing.T) {
	svc := New(Config{Capacity: 4, MaxInFlight: 1, MaxQueue: 1})
	defer svc.Close()
	big := sparse.RandomUniform(40000, 300, 0.01, 6)
	dBig := 450
	opts := core.Options{Seed: 8, Workers: 2, BlockD: 64}
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the slot
		defer wg.Done()
		if _, _, err := svc.Sketch(ctx, big, dBig, opts); err != nil {
			t.Errorf("slot holder: %v", err)
		}
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 })
	go func() { // occupies the queue
		defer wg.Done()
		if _, _, err := svc.Sketch(ctx, big, dBig, opts); err != nil {
			t.Errorf("queued request: %v", err)
		}
	}()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 1 })

	if _, _, err := svc.Sketch(ctx, big, dBig, opts); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload: err = %v, want ErrOverloaded", err)
	}
	if svc.Stats().Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", svc.Stats().Rejections)
	}
	wg.Wait()
}

// TestCloseWithInFlight closes the service while requests are mid-air: no
// deadlock, no use-after-Close; every request either succeeds or reports
// ErrClosed, and the service stays terminally closed.
func TestCloseWithInFlight(t *testing.T) {
	svc := New(Config{Capacity: 2, MaxInFlight: 4})
	a := sparse.RandomUniform(5000, 150, 0.02, 7)
	d := 225
	opts := core.Options{Seed: 4, Workers: 2}
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				_, _, err := svc.Sketch(ctx, a, d, opts)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("goroutine %d: unexpected error %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	svc.Close()
	svc.Close() // idempotent
	wg.Wait()

	if _, _, err := svc.Sketch(ctx, a, d, opts); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close request: err = %v, want ErrClosed", err)
	}
}

// TestCloseWaitsForEvictedPlans evicts 4-worker plans while executes are
// in flight through a 2-plan cache, lets every request return, and then
// calls Close: once Close returns, no goroutine of a plan (a pool worker,
// or the closer of an evicted entry) may still run. The last eviction
// comes from a by-reference miss, whose build fails at once with
// ErrNotFound, so the request returns while the closer of the plan it
// evicted may still be starting. Each round uses a fresh service.
func TestCloseWaitsForEvictedPlans(t *testing.T) {
	const rounds, goroutines, iters, nMatrices, d = 10, 6, 10, 6, 96
	opts := core.Options{Seed: 3, Workers: 4, BlockD: 32, BlockN: 16}
	mats := make([]*sparse.CSC, nMatrices)
	for i := range mats {
		mats[i] = sparse.RandomUniform(400, 64, 0.05, int64(i+1))
	}
	unknown := sparse.Fingerprint{M: 400, N: 64, NNZ: 1, Hash: 1}
	before := planGoroutines(nil)
	for round := 0; round < rounds; round++ {
		svc := New(Config{Capacity: 2, MaxInFlight: goroutines})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out := dense.NewMatrix(d, 64)
				for it := 0; it < iters; it++ {
					if _, err := svc.SketchInto(context.Background(), out, mats[(g+it)%nMatrices], d, opts); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		evicted := svc.Stats().Evictions
		if _, _, err := svc.SketchRef(context.Background(), unknown, d, opts); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("by-ref miss: err = %v, want store.ErrNotFound", err)
		}
		if evicted == 0 || svc.Stats().Evictions == evicted {
			t.Fatalf("round %d: plans were not evicted both under load and by the by-ref miss", round)
		}
		svc.Close()
		for _, g := range planGoroutines(before) {
			t.Fatalf("round %d: a plan goroutine outlives Close:\n%s", round, g)
		}
	}
}

// planGoroutines returns the stacks of the goroutines still inside a plan,
// keyed by their "goroutine N" header line and leaving out those already in
// skip: the closer of an evicted entry, in any state, and a core worker
// that is blocked. A worker that is runnable has left its loop and is
// exiting: the pool's Wait has returned, it holds nothing.
func planGoroutines(skip map[string]string) map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		id, state, _ := strings.Cut(header, " [")
		frames, _, _ = strings.Cut(frames, "\ncreated by ")
		if _, old := skip[id]; old {
			continue
		}
		running := strings.HasPrefix(state, "runnable") || strings.HasPrefix(state, "running")
		if strings.Contains(frames, "sketchsp/internal/service.(*entry).close") ||
			(strings.Contains(frames, "sketchsp/internal/core.") && !running) {
			out[id] = g
		}
	}
	return out
}

// waitFor polls cond with a hard deadline — the anti-deadlock guard for the
// gating tests.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s (deadlock?)")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
