package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// BenchmarkHandlerSketch drives Handler() in-process with the two hot
// /v1/sketch requests: an inline sketch whose plan is cached and a by-ref
// sketch whose answer is cached. -benchmem gives the allocations per
// request (the httptest request and recorder included).
func BenchmarkHandlerSketch(b *testing.B) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := New(svc, Config{})
	defer srv.Shutdown(context.Background())
	a := sparse.RandomUniform(200, 40, 0.05, 1)
	opts := core.Options{Seed: 1, Workers: 1}
	if _, err := svc.PutMatrix(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	inline, err := wire.AppendRequestFrame(nil, 16, opts, a)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := wire.AppendSketchRefFrame(nil, &wire.SketchRefRequest{D: 16, Opts: opts, Fp: a.Fingerprint()})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		frame []byte
	}{{"inline", inline}, {"byref", ref}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			h := srv.Handler()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sketch", bytes.NewReader(bc.frame)))
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d", rec.Code)
				}
			}
		})
	}
}

// TestSingleResponseFramesIntoWarmScratch pins the single answer's encode
// to zero allocations once the pooled scratch has held a frame of its
// size: the response is sized, then written once into sc.buf.
func TestSingleResponseFramesIntoWarmScratch(t *testing.T) {
	ahat := dense.NewMatrix(16, 40)
	for i := range ahat.Data {
		ahat.Data[i] = float64(i) - 0.5
	}
	for name, it := range map[string]sketchItem{
		"ok":    {resp: service.Response{Ahat: ahat, Stats: core.Stats{Samples: 640, Flops: 1280}}},
		"error": {st: wire.StatusOverloaded, detail: "queue full"},
	} {
		sc := &reqScratch{items: []sketchItem{it}}
		rt := sketchRoutes[wire.MsgSketchRequest]
		want := it.sketchResponse()
		first, err := rt.frame(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, payload, _, err := wire.SplitFrame(first, 0); err != nil || !bytes.Equal(payload, wire.AppendResponse(nil, &want)) {
			t.Fatalf("%s: framed response differs from its payload encoding (err %v)", name, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := rt.frame(sc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per single response into a warm scratch, want 0", name, n)
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing of the body,
// so a test measures the handler's allocations and not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestShardBatchHandlerAllocs pins the worker's /v1/sketch path to
// allocating a fixed number of bytes per warm shard batch request, however
// large the matrix: the body, the decoded shards, their outputs and the
// response frame all come from the pooled scratch. A 16× larger request
// (4× the columns and rows, 4× the sketch rows: ~0.2 MB in, ~0.4 MB out)
// may cost only the same fixed overhead — HTTP request state, the batch's
// goroutines and headers.
func TestShardBatchHandlerAllocs(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	h := New(svc, Config{}).Handler()
	opts := core.Options{Seed: 5, Workers: 1}
	perRequest := func(m, n, d int) float64 {
		a := sparse.RandomUniform(m, n, 0.003, int64(n))
		half := n / 2
		frame, err := wire.AppendShardBatchRequestFrame(nil, []wire.ShardRequest{
			{J0: 0, NTotal: n, SketchRequest: wire.SketchRequest{D: d, Opts: opts, A: a.ColSlice(0, half)}},
			{J0: half, NTotal: n, SketchRequest: wire.SketchRequest{D: d, Opts: opts, A: a.ColSlice(half, n)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		r := httptest.NewRequest(http.MethodPost, "/v1/sketch", nil)
		body := bytes.NewReader(frame)
		serve := func() {
			body.Reset(frame)
			r.Body = io.NopCloser(body)
			r.ContentLength = int64(len(frame))
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				t.Fatalf("HTTP %d", w.code)
			}
		}
		for i := 0; i < 5; i++ { // build the plans, fill the pool
			serve()
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small := perRequest(2000, 100, 16)
	large := perRequest(8000, 400, 64)
	t.Logf("bytes allocated per warm shard batch request: %.0f small, %.0f large", small, large)
	if large > small+2048 {
		t.Errorf("a 16x larger shard batch allocates %.0f bytes per request against %.0f: the allocation grows with the matrix", large, small)
	}
}
