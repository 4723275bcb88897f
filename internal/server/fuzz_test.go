package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// fuzzMaxBody bounds the fuzzed request bodies; the seeds fit under it.
const fuzzMaxBody = 1 << 13

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
// /v1/sketch request frame at all. A body with bytes after its frame is
// malformed: every item of the answer is StatusMalformed. The service
// sketches whatever the frame names, m up to wire.MaxDim included: no
// algorithm allocates or loops over m.
func FuzzSketchHandler(f *testing.F) {
	svc := service.New(service.Config{Capacity: 4})
	srv := New(svc, Config{MaxBodyBytes: fuzzMaxBody, MaxSketchBytes: contractMaxSketch})
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
	seeds = append(seeds, append(fr.frame(f, wire.MsgBatchRequest, false, false), 0))
	tall := sparse.NewCOO(wire.MaxDim-1, 2, 3)
	tall.Append(0, 0, 1)
	tall.Append(wire.MaxDim-2, 0, -2)
	tall.Append(1<<33+7, 1, 3)
	for _, alg := range []core.Algorithm{core.Alg4, core.AlgAuto} {
		opts := fr.opts
		opts.Algorithm = alg
		seeds = append(seeds, mustFrame(f, wire.MsgSketchRequest, wire.AppendRequest(nil, 4, opts, tall.ToCSC())))
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
		want, trailing := wire.MsgSketchResponse, false
		if typ, _, rest, err := wire.SplitFrame(body, fuzzMaxBody); err == nil && len(body) <= fuzzMaxBody {
			if resp, ok := sketchResponseOf[typ]; ok {
				want, trailing = resp, len(rest) != 0
			}
		}
		got, sts := itemStatuses(t, rec.Body.Bytes())
		if got != want {
			t.Fatalf("answered %v, want %v", got, want)
		}
		if trailing && (rec.Code != http.StatusBadRequest || fmt.Sprint(sts) != fmt.Sprint([]wire.Status{wire.StatusMalformed})) {
			t.Fatalf("frame with trailing bytes answered HTTP %d, %v; want 400, [malformed]", rec.Code, sts)
		}
	})
}

func mustFrame(tb testing.TB, typ wire.MsgType, payload []byte) []byte {
	tb.Helper()
	frame, err := wire.AppendFrame(nil, typ, len(payload), func(dst []byte) []byte { return append(dst, payload...) })
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}
