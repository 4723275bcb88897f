package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"sketchsp/internal/core"
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
