package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
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
	inline, err := wire.EncodeRequestFrame(16, opts, a)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := wire.EncodeSketchRefFrame(&wire.SketchRefRequest{D: 16, Opts: opts, Fp: a.Fingerprint()})
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
// size: the response is sized, then written once into sc.out.
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
		first, err := rt.frame(sc, sc.items)
		if err != nil {
			t.Fatal(err)
		}
		if _, payload, _, err := wire.SplitFrame(first, 0); err != nil || !bytes.Equal(payload, wire.AppendResponse(nil, &want)) {
			t.Fatalf("%s: framed response differs from its payload encoding (err %v)", name, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := rt.frame(sc, sc.items); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per single response into a warm scratch, want 0", name, n)
		}
	}
}
