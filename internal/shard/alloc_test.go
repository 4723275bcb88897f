package shard

import (
	"context"
	"runtime"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// coordinatorBytesPerSketch returns the bytes the whole process — the
// coordinator and its loopback workers — allocates per warm
// Coordinator.Sketch of a.
func coordinatorBytesPerSketch(t *testing.T, c *Coordinator, a *sparse.CSC, d, runs int) float64 {
	opts := core.Options{Dist: rng.Uniform11, Seed: 3, Workers: 1}
	ctx := context.Background()
	for i := 0; i < 10; i++ { // build the workers' plans, fill the pools
		if _, _, err := c.Sketch(ctx, a, d, opts); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := c.Sketch(ctx, a, d, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCoordinatorSketchAllocs pins the steady state of a shard fan-out to
// allocating the Â it returns plus a fixed overhead: request frames,
// response bodies, partials and the workers' buffers are all reused. The
// overhead is HTTP request state on both ends and the copy buffer net/http
// takes to send each request body (at most 32 KiB per frame).
func TestCoordinatorSketchAllocs(t *testing.T) {
	_, urls := startWorkers(t, 2, nil)
	c, err := New(Config{Peers: urls, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const d, overhead = 64, 192 << 10
	for _, n := range []int{200, 800} {
		a := sparse.RandomUniform(8000, n, 0.003, int64(n))
		perOp := coordinatorBytesPerSketch(t, c, a, d, 30)
		ahat := float64(8 * d * n)
		t.Logf("n=%d: %.0f bytes allocated per Sketch, Â is %.0f", n, perOp, ahat)
		if perOp > ahat+overhead {
			t.Errorf("n=%d: %.0f bytes allocated per Sketch, want at most Â (%.0f) + %d", n, perOp, ahat, overhead)
		}
	}
}

// BenchmarkCoordinatorSketch runs warm Coordinator.Sketch calls of the
// shard workload's shape (8000×800, d=64, 4 shards over 2 loopback
// workers); -benchmem reports the whole process's allocation per call.
func BenchmarkCoordinatorSketch(b *testing.B) {
	_, urls := startWorkers(b, 2, nil)
	c, err := New(Config{Peers: urls, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	a := sparse.RandomUniform(8000, 800, 0.003, 7001)
	opts := core.Options{Dist: rng.Uniform11, Seed: 1, Workers: 1}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, _, err := c.Sketch(ctx, a, 64, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Sketch(ctx, a, 64, opts); err != nil {
			b.Fatal(err)
		}
	}
}
