package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// fuzzMaxBody bounds the fuzzed request bodies; the seeds fit under it.
const fuzzMaxBody = 1 << 13

// fuzzMaxRows caps the rows of the matrices the fuzzed service sketches.
// No server limit bounds m: Algorithm 4's blocked-CSR conversion allocates
// row pointers per column slab, O(m·slabs) memory for a request of a few
// hundred bytes, so a fuzzed m near wire.MaxDim would exhaust the host's
// memory instead of exercising the handler.
const fuzzMaxRows = 1 << 10

// rowCapBackend is the local service with taller matrices refused.
type rowCapBackend struct{ *service.Service }

var errTooTall = fmt.Errorf("%w: the fuzz backend sketches at most %d rows", core.ErrBadOptions, fuzzMaxRows)

func (b rowCapBackend) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	if a.M > fuzzMaxRows {
		return nil, core.Stats{}, errTooTall
	}
	return b.Service.Sketch(ctx, a, d, opts)
}

func (b rowCapBackend) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	short := make([]service.Request, len(reqs))
	for i, r := range reqs {
		if r.A == nil || r.A.M <= fuzzMaxRows {
			short[i] = r
		}
	}
	out := b.Service.SketchBatch(ctx, short)
	for i, r := range reqs {
		if r.A != nil && r.A.M > fuzzMaxRows {
			out[i] = service.Response{Err: errTooTall}
		}
	}
	return out
}

// sketchResponseOf maps each /v1/sketch request type onto the response
// type that must answer it.
var sketchResponseOf = map[wire.MsgType]wire.MsgType{
	wire.MsgSketchRequest:     wire.MsgSketchResponse,
	wire.MsgSketchRef:         wire.MsgSketchResponse,
	wire.MsgBatchRequest:      wire.MsgBatchResponse,
	wire.MsgShardBatchRequest: wire.MsgShardBatchResponse,
}

// FuzzSketchHandler drives POST /v1/sketch through Handler() with arbitrary
// bodies under small MaxBodyBytes and MaxSketchBytes. Whatever the bytes,
// the handler must not panic and must not answer 500, and it must answer
// with exactly one frame that decodes, of the response type the request's
// frame type maps to — the single-response form when the body is no
// /v1/sketch request frame at all.
func FuzzSketchHandler(f *testing.F) {
	svc := service.New(service.Config{Capacity: 4})
	srv := NewBackend(rowCapBackend{svc}, Config{MaxBodyBytes: fuzzMaxBody, MaxSketchBytes: contractMaxSketch})
	f.Cleanup(func() {
		srv.Shutdown(context.Background())
		svc.Close()
	})
	fr := newContractFrames()
	if _, err := svc.PutMatrix(context.Background(), fr.a); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		mustFrame(f, wire.MsgBatchRequest, wire.AppendBatchRequest(nil, []wire.SketchRequest{{D: 4, Opts: fr.opts, A: fr.b}})),
		mustFrame(f, wire.MsgShardBatchRequest, wire.AppendShardBatchRequest(nil, []wire.ShardRequest{
			{NTotal: fr.a.N, SketchRequest: wire.SketchRequest{D: 4, Opts: fr.opts, A: fr.a}}})),
	}
	for _, typ := range []wire.MsgType{wire.MsgSketchRequest, wire.MsgSketchRef, wire.MsgBatchRequest, wire.MsgShardBatchRequest} {
		seeds = append(seeds, fr.frame(f, typ, false, false), fr.frame(f, typ, true, false))
	}
	for _, s := range seeds {
		f.Add(s)
		for _, n := range []int{len(s) - 1, len(s) / 2, wire.HeaderSize, 3} {
			f.Add(s[:n])
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sketch", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("HTTP 500 for % x", body)
		}
		want := wire.MsgSketchResponse
		if typ, _, _, err := wire.SplitFrame(body, fuzzMaxBody); err == nil && len(body) <= fuzzMaxBody {
			if resp, ok := sketchResponseOf[typ]; ok {
				want = resp
			}
		}
		if got, _ := itemStatuses(t, rec.Body.Bytes()); got != want {
			t.Fatalf("answered %v, want %v", got, want)
		}
	})
}

func mustFrame(tb testing.TB, typ wire.MsgType, payload []byte) []byte {
	tb.Helper()
	frame, err := wire.AppendFrame(nil, typ, payload)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}
