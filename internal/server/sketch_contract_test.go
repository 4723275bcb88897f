package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// contractMaxSketch admits the 4×6 sketches of the contract frames and
// refuses the 64×6 one each "over" frame carries.
const contractMaxSketch = 8 * 4 * 6

// contractFrames holds the matrices and options of the contract table's
// /v1/sketch requests.
type contractFrames struct {
	a, b *sparse.CSC // a is also stored, for the by-ref frame
	opts core.Options
}

func newContractFrames() *contractFrames {
	return &contractFrames{
		a:    sparse.RandomUniform(40, 6, 0.2, 1),
		b:    sparse.RandomUniform(30, 5, 0.3, 2),
		opts: core.Options{Seed: 3, Workers: 1},
	}
}

// frame builds the request of message type typ. With over set, its last
// item asks for a sketch beyond contractMaxSketch; with broken set, the
// payload is cut one byte short inside a well-formed frame header.
func (f *contractFrames) frame(tb testing.TB, typ wire.MsgType, over, broken bool) []byte {
	tb.Helper()
	d2 := 4
	if over {
		d2 = 64
	}
	var payload []byte
	switch typ {
	case wire.MsgSketchRequest:
		payload = wire.AppendRequest(nil, d2, f.opts, f.a)
	case wire.MsgSketchRef:
		payload = wire.AppendSketchRef(nil, &wire.SketchRefRequest{D: d2, Opts: f.opts, Fp: f.a.Fingerprint()})
	case wire.MsgBatchRequest:
		payload = wire.AppendBatchRequest(nil, []wire.SketchRequest{
			{D: 4, Opts: f.opts, A: f.a}, {D: d2, Opts: f.opts, A: f.b}})
	case wire.MsgShardBatchRequest:
		payload = wire.AppendShardBatchRequest(nil, []wire.ShardRequest{
			{J0: 0, NTotal: 6, SketchRequest: wire.SketchRequest{D: 4, Opts: f.opts, A: f.a.ColSlice(0, 3)}},
			{J0: 3, NTotal: 6, SketchRequest: wire.SketchRequest{D: d2, Opts: f.opts, A: f.a.ColSlice(3, 6)}}})
	default:
		tb.Fatalf("no contract frame for %v", typ)
	}
	if broken {
		payload = payload[:len(payload)-1]
	}
	return mustFrame(tb, typ, payload)
}

// itemStatuses splits one response body into its frame type and the wire
// status of each item it answers; the body must be exactly one frame that
// its type's decoder accepts.
func itemStatuses(t *testing.T, body []byte) (wire.MsgType, []wire.Status) {
	t.Helper()
	typ, payload, rest, err := wire.SplitFrame(body, 0)
	if err != nil || len(rest) != 0 {
		t.Fatalf("response is not one frame: err=%v, %d trailing bytes", err, len(rest))
	}
	var sts []wire.Status
	switch typ {
	case wire.MsgSketchResponse:
		r, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("sketch response: %v", err)
		}
		sts = append(sts, r.Status)
	case wire.MsgBatchResponse:
		rs, err := wire.DecodeBatchResponse(payload)
		if err != nil {
			t.Fatalf("batch response: %v", err)
		}
		for _, r := range rs {
			sts = append(sts, r.Status)
		}
	case wire.MsgShardBatchResponse:
		rs, err := wire.DecodeShardBatchResponse(payload)
		if err != nil {
			t.Fatalf("shard batch response: %v", err)
		}
		for _, r := range rs {
			sts = append(sts, r.Status)
		}
	default:
		t.Fatalf("unexpected response frame type %v", typ)
	}
	return typ, sts
}

// TestSketchEndpointContract pins what POST /v1/sketch answers for every
// request message type in every case the handler distinguishes: the HTTP
// status, the response frame type, each item's wire status, and how the
// frame moves the requests and bad_requests counters. Items count as
// requests once their frame decodes; a frame rejected before that counts
// one bad request and no requests, whatever its type.
func TestSketchEndpointContract(t *testing.T) {
	f := newContractFrames()
	svc := service.New(service.Config{})
	defer svc.Close()
	if _, err := svc.PutMatrix(context.Background(), f.a); err != nil {
		t.Fatal(err)
	}
	full := New(svc, Config{MaxSketchBytes: contractMaxSketch})
	plainSvc := service.New(service.Config{})
	defer plainSvc.Close()
	plain := NewBackend(plainBackend{svc: plainSvc}, Config{MaxSketchBytes: contractMaxSketch})
	for _, s := range []*Server{full, plain} {
		defer s.Shutdown(context.Background())
	}

	type want struct {
		code        int
		resp        wire.MsgType
		items       []wire.Status
		requests    int64
		badRequests int64
	}
	ok, bad, badOpts := wire.StatusOK, wire.StatusMalformed, wire.StatusBadOptions
	single := func(code int, st wire.Status, req, badReq int64) want {
		return want{code, wire.MsgSketchResponse, []wire.Status{st}, req, badReq}
	}
	batch := func(typ wire.MsgType, code int, sts []wire.Status, req, badReq int64) want {
		if typ == wire.MsgShardBatchRequest {
			return want{code, wire.MsgShardBatchResponse, sts, req, badReq}
		}
		return want{code, wire.MsgBatchResponse, sts, req, badReq}
	}
	type row struct {
		name    string
		srv     *Server
		over    bool
		broken  bool
		timeout string
		// trailing is appended after the frame.
		trailing []byte
		want     map[wire.MsgType]want
	}
	rows := []row{
		{name: "valid", srv: full, want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(200, ok, 1, 0),
			wire.MsgSketchRef:         single(200, ok, 1, 0),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 200, []wire.Status{ok, ok}, 2, 0),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 200, []wire.Status{ok, ok}, 2, 0),
		}},
		{name: "malformed", srv: full, broken: true, want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(400, bad, 0, 1),
			wire.MsgSketchRef:         single(400, bad, 0, 1),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 400, []wire.Status{bad}, 0, 1),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 400, []wire.Status{bad}, 0, 1),
		}},
		{name: "over-max-sketch-bytes", srv: full, over: true, want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(400, badOpts, 1, 0),
			wire.MsgSketchRef:         single(400, badOpts, 1, 0),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 200, []wire.Status{ok, badOpts}, 2, 0),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 200, []wire.Status{ok, badOpts}, 2, 0),
		}},
		// The frame's type is looked up before the deadline header is
		// read, so every type is answered in its own response form.
		{name: "bad-timeout-header", srv: full, timeout: "-5", want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(400, bad, 0, 1),
			wire.MsgSketchRef:         single(400, bad, 0, 1),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 400, []wire.Status{bad}, 0, 1),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 400, []wire.Status{bad}, 0, 1),
		}},
		// A body must be exactly one frame: a valid frame followed by any
		// byte is malformed, answered in the frame type's response form.
		{name: "trailing-byte", srv: full, trailing: []byte{0}, want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(400, bad, 0, 1),
			wire.MsgSketchRef:         single(400, bad, 0, 1),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 400, []wire.Status{bad}, 0, 1),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 400, []wire.Status{bad}, 0, 1),
		}},
		{name: "trailing-frame", srv: full, trailing: f.frame(t, wire.MsgSketchRequest, false, false), want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(400, bad, 0, 1),
			wire.MsgSketchRef:         single(400, bad, 0, 1),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 400, []wire.Status{bad}, 0, 1),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 400, []wire.Status{bad}, 0, 1),
		}},
		{name: "plain-backend", srv: plain, want: map[wire.MsgType]want{
			wire.MsgSketchRequest:     single(200, ok, 1, 0),
			wire.MsgSketchRef:         single(400, badOpts, 1, 1),
			wire.MsgBatchRequest:      batch(wire.MsgBatchRequest, 200, []wire.Status{ok, ok}, 2, 0),
			wire.MsgShardBatchRequest: batch(wire.MsgShardBatchRequest, 200, []wire.Status{ok, ok}, 2, 0),
		}},
	}
	types := []wire.MsgType{wire.MsgSketchRequest, wire.MsgSketchRef, wire.MsgBatchRequest, wire.MsgShardBatchRequest}
	for _, r := range rows {
		for _, typ := range types {
			w := r.want[typ]
			t.Run(fmt.Sprintf("%s/%v", r.name, typ), func(t *testing.T) {
				body := append(f.frame(t, typ, r.over, r.broken), r.trailing...)
				req := httptest.NewRequest(http.MethodPost, "/v1/sketch", bytes.NewReader(body))
				if r.timeout != "" {
					req.Header.Set("X-Sketchsp-Timeout-Ms", r.timeout)
				}
				before := r.srv.Stats().Server
				rec := httptest.NewRecorder()
				r.srv.Handler().ServeHTTP(rec, req)
				after := r.srv.Stats().Server

				if rec.Code != w.code {
					t.Errorf("HTTP status = %d, want %d", rec.Code, w.code)
				}
				resp, sts := itemStatuses(t, rec.Body.Bytes())
				if resp != w.resp {
					t.Errorf("response frame = %v, want %v", resp, w.resp)
				}
				if fmt.Sprint(sts) != fmt.Sprint(w.items) {
					t.Errorf("item statuses = %v, want %v", sts, w.items)
				}
				if got := after.Requests - before.Requests; got != w.requests {
					t.Errorf("requests += %d, want %d", got, w.requests)
				}
				if got := after.BadRequests - before.BadRequests; got != w.badRequests {
					t.Errorf("bad_requests += %d, want %d", got, w.badRequests)
				}
			})
		}
	}
}

// lateBackend fails every sketch with an unclassified error, and only once
// the request context has ended: a backend whose own cancellation surfaces
// as an error of its own.
type lateBackend struct{}

func (lateBackend) fail(ctx context.Context) error {
	<-ctx.Done()
	return errors.New("backend gave up")
}

func (b lateBackend) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	return nil, core.Stats{}, b.fail(ctx)
}

func (b lateBackend) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	err := b.fail(ctx)
	out := make([]service.Response, len(reqs))
	for i := range out {
		out[i].Err = err
	}
	return out
}

func (b lateBackend) SketchRef(ctx context.Context, fp sparse.Fingerprint, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	return nil, core.Stats{}, b.fail(ctx)
}

func (lateBackend) PutMatrix(context.Context, *sparse.CSC) (store.Info, error) {
	return store.Info{}, errors.New("unused")
}

func (lateBackend) PatchMatrix(context.Context, sparse.Fingerprint, *sparse.CSC) (store.Info, error) {
	return store.Info{}, errors.New("unused")
}

func (lateBackend) Close() {}

// TestSketchContextVerdictWins: when a backend call fails after the
// request's deadline fired, every item of every message type reports the
// deadline, not the backend's unclassified error.
func TestSketchContextVerdictWins(t *testing.T) {
	f := newContractFrames()
	srv := NewBackend(lateBackend{}, Config{})
	defer srv.Shutdown(context.Background())
	dl := wire.StatusDeadlineExceeded
	for _, c := range []struct {
		typ   wire.MsgType
		code  int
		items []wire.Status
	}{
		{wire.MsgSketchRequest, http.StatusGatewayTimeout, []wire.Status{dl}},
		{wire.MsgSketchRef, http.StatusGatewayTimeout, []wire.Status{dl}},
		{wire.MsgBatchRequest, http.StatusOK, []wire.Status{dl, dl}},
		{wire.MsgShardBatchRequest, http.StatusOK, []wire.Status{dl, dl}},
	} {
		t.Run(c.typ.String(), func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/sketch", bytes.NewReader(f.frame(t, c.typ, false, false)))
			req.Header.Set("X-Sketchsp-Timeout-Ms", "5")
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != c.code {
				t.Errorf("HTTP status = %d, want %d", rec.Code, c.code)
			}
			if _, sts := itemStatuses(t, rec.Body.Bytes()); fmt.Sprint(sts) != fmt.Sprint(c.items) {
				t.Errorf("item statuses = %v, want %v", sts, c.items)
			}
		})
	}
}

// TestSketchSizeCheckCountsOneColumn: a sketch of a matrix with no columns
// still sizes the plan's column buffers by d, so the MaxSketchBytes check
// counts it as one column instead of letting any d through.
func TestSketchSizeCheckCountsOneColumn(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := New(svc, Config{MaxSketchBytes: contractMaxSketch})
	defer srv.Shutdown(context.Background())
	empty := &sparse.CSC{M: 40, N: 0, ColPtr: []int{0}}
	for d, want := range map[int]wire.Status{contractMaxSketch / 8: wire.StatusOK, contractMaxSketch/8 + 1: wire.StatusBadOptions} {
		frame, err := wire.EncodeRequestFrame(d, core.Options{Seed: 1}, empty)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sketch", bytes.NewReader(frame)))
		if _, sts := itemStatuses(t, rec.Body.Bytes()); sts[0] != want {
			t.Errorf("d=%d, n=0: status %v, want %v", d, sts[0], want)
		}
	}
}
