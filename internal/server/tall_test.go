package server

import (
	"bytes"
	"context"
	"fmt"
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

// TestSketchTallMatrixAllocation sends POST /v1/sketch requests of a few
// hundred bytes that name a tall matrix: n = 1, one nonzero in row 3, and
// m up to wire.MaxDim. What a request allocates must not grow with m under
// any algorithm (Algorithm 4's slabs and AlgAuto's sample count included),
// and Â must be bit-equal to the same request with m = 8, since the
// columns of S past the last nonzero row are never drawn.
func TestSketchTallMatrixAllocation(t *testing.T) {
	svc := service.New(service.Config{})
	srv := New(svc, Config{})
	defer func() {
		srv.Shutdown(context.Background())
		svc.Close()
	}()
	sketch := func(t *testing.T, m int, alg core.Algorithm) (*dense.Matrix, uint64) {
		t.Helper()
		coo := sparse.NewCOO(m, 1, 1)
		coo.Append(3, 0, 2.5)
		opts := core.Options{Algorithm: alg, Seed: 7, Workers: 1}
		body := mustFrame(t, wire.MsgSketchRequest, wire.AppendRequest(nil, 8, opts, coo.ToCSC()))
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sketch", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("m=%d: HTTP %d", m, rec.Code)
		}
		_, payload, _, err := wire.SplitFrame(rec.Body.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		return resp.Ahat, after.TotalAlloc - before.TotalAlloc
	}
	for name, alg := range map[string]core.Algorithm{"Alg3": core.Alg3, "Alg4": core.Alg4, "AlgAuto": core.AlgAuto} {
		want, _ := sketch(t, 8, alg)
		for _, m := range []int{1 << 24, wire.MaxDim} {
			t.Run(fmt.Sprintf("%s/m=%d", name, m), func(t *testing.T) {
				got, alloc := sketch(t, m, alg)
				t.Logf("allocated %d bytes", alloc)
				if alloc > 1<<20 {
					t.Errorf("allocated %d bytes, want under 1 MiB", alloc)
				}
				if err := bitIdentical(got, want); err != nil {
					t.Errorf("Â differs from the m = 8 sketch: %v", err)
				}
			})
		}
	}
}
