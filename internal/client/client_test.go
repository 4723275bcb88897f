package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// mustFrame frames a canned test payload (test sizes cannot hit the
// 32-bit frame limit, so the error is impossible).
func mustFrame(typ wire.MsgType, payload []byte) []byte {
	b, err := wire.AppendFrame(nil, typ, len(payload), func(dst []byte) []byte { return append(dst, payload...) })
	if err != nil {
		panic(err)
	}
	return b
}

// testMatrix returns a small fixed CSC input for request bodies.
func testMatrix(t *testing.T) *sparse.CSC {
	t.Helper()
	a, err := sparse.NewCSC(4, 3,
		[]int{0, 2, 2, 4},
		[]int{0, 2, 1, 3},
		[]float64{1, -2, 3.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// okResponseFrame builds a well-formed StatusOK single-response frame
// carrying a recognisable 2x3 sketch.
func okResponseFrame(t *testing.T) []byte {
	t.Helper()
	ahat := dense.NewMatrix(2, 3)
	for j := 0; j < 3; j++ {
		col := ahat.Col(j)
		for i := range col {
			col[i] = float64(10*j + i)
		}
	}
	resp := wire.SketchResponse{
		Status: wire.StatusOK,
		Stats:  core.Stats{Samples: 6, Total: time.Millisecond},
		Ahat:   ahat,
	}
	return mustFrame(wire.MsgSketchResponse, wire.AppendResponse(nil, &resp))
}

// errResponseFrame builds a non-OK single-response frame.
func errResponseFrame(st wire.Status, detail string) []byte {
	resp := wire.SketchResponse{Status: st, Detail: detail}
	return mustFrame(wire.MsgSketchResponse, wire.AppendResponse(nil, &resp))
}

// stubServer runs an httptest server whose /v1/sketch handler pops the next
// canned reply per request and counts attempts.
func stubServer(t *testing.T, replies []func(w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sketch" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		i := int(n.Add(1)) - 1
		if i >= len(replies) {
			i = len(replies) - 1
		}
		replies[i](w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

func replyFrame(frame []byte, httpStatus int) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-sketchsp-wire")
		w.WriteHeader(httpStatus)
		w.Write(frame)
	}
}

func fastCfg() Config {
	return Config{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

func TestSketchRetriesOverloadedThenSucceeds(t *testing.T) {
	over := errResponseFrame(wire.StatusOverloaded, "queue full")
	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		replyFrame(over, http.StatusTooManyRequests),
		replyFrame(over, http.StatusTooManyRequests),
		replyFrame(okResponseFrame(t), http.StatusOK),
	})
	c := New(srv.URL, fastCfg())
	ahat, stats, err := c.Sketch(context.Background(), testMatrix(t), 2, core.Options{})
	if err != nil {
		t.Fatalf("Sketch: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two overloaded, one OK)", got)
	}
	if ahat.Rows != 2 || ahat.Cols != 3 || ahat.At(1, 2) != 21 {
		t.Errorf("decoded sketch wrong: %dx%d At(1,2)=%v", ahat.Rows, ahat.Cols, ahat.At(1, 2))
	}
	if stats.Samples != 6 || stats.Total != time.Millisecond {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSketchNeverRetriesInvalidInput(t *testing.T) {
	for _, tc := range []struct {
		name     string
		st       wire.Status
		httpCode int
		sentinel error
	}{
		{"invalid-matrix", wire.StatusInvalidMatrix, http.StatusBadRequest, core.ErrInvalidMatrix},
		{"bad-options", wire.StatusBadOptions, http.StatusBadRequest, core.ErrBadOptions},
		{"invalid-sketch-size", wire.StatusInvalidSketchSize, http.StatusBadRequest, core.ErrInvalidSketchSize},
		{"closed", wire.StatusClosed, http.StatusServiceUnavailable, service.ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
				replyFrame(errResponseFrame(tc.st, "nope"), tc.httpCode),
			})
			c := New(srv.URL, fastCfg())
			_, _, err := c.Sketch(context.Background(), testMatrix(t), 2, core.Options{})
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want Is(%v)", err, tc.sentinel)
			}
			if got := attempts.Load(); got != 1 {
				t.Errorf("attempts = %d, want exactly 1 (no retry on %v)", got, tc.st)
			}
		})
	}
}

func TestSketchRetriesTransportError(t *testing.T) {
	// First reply is a non-frame body (a proxy-style error page); the
	// client must classify it as transport-level and retry.
	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte("<html>bad gateway</html>"))
		},
		replyFrame(okResponseFrame(t), http.StatusOK),
	})
	c := New(srv.URL, fastCfg())
	if _, _, err := c.Sketch(context.Background(), testMatrix(t), 2, core.Options{}); err != nil {
		t.Fatalf("Sketch: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

func TestSketchOversizedResponseNotRetried(t *testing.T) {
	full := okResponseFrame(t) // 133 bytes, far over the tiny limit below

	// An actual body beyond HeaderSize+MaxResponseBytes must surface
	// ErrTooLarge from the single attempt — not a truncated-payload decode
	// failure dressed as a retryable transport error.
	t.Run("oversized-body", func(t *testing.T) {
		srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
			replyFrame(full, http.StatusOK),
		})
		cfg := fastCfg()
		cfg.MaxResponseBytes = 16
		c := New(srv.URL, cfg)
		_, _, err := c.Sketch(context.Background(), testMatrix(t), 2, core.Options{})
		if !errors.Is(err, wire.ErrTooLarge) {
			t.Fatalf("err = %v, want Is(wire.ErrTooLarge)", err)
		}
		if got := attempts.Load(); got != 1 {
			t.Errorf("attempts = %d, want 1: an oversized response is deterministic", got)
		}
	})

	// A short body whose header still declares an over-limit payload is
	// equally deterministic and equally non-retryable.
	t.Run("oversized-declared-length", func(t *testing.T) {
		srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
			replyFrame(full[:wire.HeaderSize+4], http.StatusOK),
		})
		cfg := fastCfg()
		cfg.MaxResponseBytes = 64
		c := New(srv.URL, cfg)
		_, _, err := c.Sketch(context.Background(), testMatrix(t), 2, core.Options{})
		if !errors.Is(err, wire.ErrTooLarge) {
			t.Fatalf("err = %v, want Is(wire.ErrTooLarge)", err)
		}
		if got := attempts.Load(); got != 1 {
			t.Errorf("attempts = %d, want 1", got)
		}
	})
}

func TestSketchExhaustsRetriesOnPersistentOverload(t *testing.T) {
	over := errResponseFrame(wire.StatusOverloaded, "still full")
	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		replyFrame(over, http.StatusTooManyRequests),
	})
	cfg := fastCfg()
	cfg.MaxRetries = 2
	c := New(srv.URL, cfg)
	_, _, err := c.Sketch(context.Background(), testMatrix(t), 2, core.Options{})
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("err = %v, want Is(service.ErrOverloaded)", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + MaxRetries)", got)
	}
}

func TestSketchContextCancelStopsRetrying(t *testing.T) {
	over := errResponseFrame(wire.StatusOverloaded, "")
	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		replyFrame(over, http.StatusTooManyRequests),
	})
	cfg := fastCfg()
	cfg.MaxRetries = 50
	cfg.BaseBackoff = 20 * time.Millisecond
	cfg.MaxBackoff = 200 * time.Millisecond
	c := New(srv.URL, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Sketch(ctx, testMatrix(t), 2, core.Options{})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := attempts.Load(); got > 4 {
		t.Errorf("attempts = %d, want a handful before the deadline", got)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("retry loop outlived the context by far")
	}
}

func TestSketchBatchRetriesWholeShedBatch(t *testing.T) {
	shed := []wire.SketchResponse{
		{Status: wire.StatusOverloaded, Detail: "shed"},
		{Status: wire.StatusOverloaded, Detail: "shed"},
	}
	shedFrame := mustFrame(wire.MsgBatchResponse, wire.AppendBatchResponse(nil, shed))

	ahat := dense.NewMatrix(1, 1)
	ahat.Col(0)[0] = 42
	ok := []wire.SketchResponse{
		{Status: wire.StatusOK, Ahat: ahat},
		{Status: wire.StatusInvalidMatrix, Detail: "item 1 bad"},
	}
	okFrame := mustFrame(wire.MsgBatchResponse, wire.AppendBatchResponse(nil, ok))

	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		replyFrame(shedFrame, http.StatusTooManyRequests),
		replyFrame(okFrame, http.StatusOK),
	})
	c := New(srv.URL, fastCfg())
	reqs := []wire.SketchRequest{
		{D: 2, A: testMatrix(t)},
		{D: 3, A: testMatrix(t)},
	}
	rs, err := c.SketchBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("SketchBatch: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (shed batch retried once)", got)
	}
	if rs[0].Status != wire.StatusOK || rs[0].Ahat.At(0, 0) != 42 {
		t.Errorf("item 0 = %+v", rs[0])
	}
	// Mixed outcomes are per-item results, not call errors, and a batch
	// containing any non-retryable item must not be retried.
	if !errors.Is(rs[1].Err(), core.ErrInvalidMatrix) {
		t.Errorf("item 1 err = %v", rs[1].Err())
	}
}

func TestSketchBatchMixedFailureNotRetried(t *testing.T) {
	mixed := []wire.SketchResponse{
		{Status: wire.StatusOverloaded, Detail: "shed"},
		{Status: wire.StatusInvalidMatrix, Detail: "bad"},
	}
	frame := mustFrame(wire.MsgBatchResponse, wire.AppendBatchResponse(nil, mixed))
	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		replyFrame(frame, http.StatusOK),
	})
	c := New(srv.URL, fastCfg())
	reqs := []wire.SketchRequest{{D: 2, A: testMatrix(t)}, {D: 2, A: testMatrix(t)}}
	rs, err := c.SketchBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("SketchBatch: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1: a partially-shed batch is not retried wholesale", got)
	}
	if !errors.Is(rs[0].Err(), service.ErrOverloaded) {
		t.Errorf("item 0 err = %v", rs[0].Err())
	}
}

func TestSketchNilMatrixFailsLocally(t *testing.T) {
	c := New("http://127.0.0.1:0", fastCfg())
	if _, _, err := c.Sketch(context.Background(), nil, 2, core.Options{}); !errors.Is(err, core.ErrNilMatrix) {
		t.Fatalf("err = %v, want Is(core.ErrNilMatrix)", err)
	}
}

func TestBackoffCapsAndJitters(t *testing.T) {
	c := New("http://127.0.0.1:0", Config{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
	})
	for attempt := 0; attempt < 12; attempt++ {
		want := 10 * time.Millisecond << uint(attempt)
		if want > 80*time.Millisecond || want <= 0 {
			want = 80 * time.Millisecond
		}
		for trial := 0; trial < 20; trial++ {
			got := c.backoff(attempt)
			lo := time.Duration(float64(want) * 0.5)
			hi := time.Duration(float64(want) * 1.5)
			if got < lo || got > hi {
				t.Fatalf("backoff(%d) = %v outside jitter window [%v, %v]", attempt, got, lo, hi)
			}
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&transportError{err: errors.New("connection reset")}, true},
		{wire.StatusOverloaded.Err("x"), true},
		{wire.StatusInvalidMatrix.Err("x"), false},
		{wire.StatusClosed.Err("x"), false},
		{wire.StatusDeadlineExceeded.Err("x"), false},
		{wire.StatusMalformed.Err("x"), false},
		{context.Canceled, false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// replyChunked streams frame without a Content-Length: the header is
// flushed before the body, so the transfer is chunked and the client
// cannot size the body in advance.
func replyChunked(frame []byte) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-sketchsp-wire")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		w.Write(frame)
	}
}

// replyDeclared sends frame under an explicit Content-Length of declared
// bytes, which may disagree with len(frame).
func replyDeclared(frame []byte, declared int) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-sketchsp-wire")
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		w.WriteHeader(http.StatusOK)
		w.Write(frame)
	}
}

// lengthRecorder records the Content-Length of every response it passes
// on (-1: unknown, the body is chunked).
type lengthRecorder struct{ lengths []int64 }

func (r *lengthRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		r.lengths = append(r.lengths, res.ContentLength)
	}
	return res, err
}

// TestSketchBodyReads pins how one attempt reads a response body: sized by
// its Content-Length when the server declares one, read to the end when
// it does not, and in both cases bounded by HeaderSize+MaxResponseBytes.
func TestSketchBodyReads(t *testing.T) {
	const lyingLimit = 64 << 20 // MaxResponseBytes of the lying-length case
	full := okResponseFrame(t)
	exact := len(full) - wire.HeaderSize // MaxResponseBytes the frame fills exactly
	cases := []struct {
		name     string
		replies  []func(http.ResponseWriter, *http.Request)
		maxResp  int
		sentinel error // nil: the sketch succeeds
		attempts int64
		maxAlloc uint64 // > 0: bound on the bytes allocated per attempt
	}{
		{name: "chunked", replies: []func(http.ResponseWriter, *http.Request){replyChunked(full)}, attempts: 1},
		{name: "chunked-at-limit", replies: []func(http.ResponseWriter, *http.Request){replyChunked(full)},
			maxResp: exact, attempts: 1},
		{name: "chunked-over-limit", replies: []func(http.ResponseWriter, *http.Request){replyChunked(full)},
			maxResp: exact - 1, sentinel: wire.ErrTooLarge, attempts: 1},
		{name: "length-at-limit", replies: []func(http.ResponseWriter, *http.Request){replyDeclared(full, len(full))},
			maxResp: exact, attempts: 1},
		// The declared length alone refuses the body: no retry, since the
		// same request draws the same oversized answer.
		{name: "length-over-limit", replies: []func(http.ResponseWriter, *http.Request){replyDeclared(full, len(full))},
			maxResp: exact - 1, sentinel: wire.ErrTooLarge, attempts: 1},
		// A body that ends before its declared length is a broken
		// transfer: retried, and the retry's whole body succeeds.
		{name: "length-short-body", replies: []func(http.ResponseWriter, *http.Request){
			replyDeclared(full, len(full)+10), replyDeclared(full, len(full))}, attempts: 2},
		// A length just under the limit over a body of a few bytes costs
		// what arrived, not what was declared, on every attempt.
		{name: "length-lying-near-limit", replies: []func(http.ResponseWriter, *http.Request){
			replyDeclared(full, wire.HeaderSize+lyingLimit), replyDeclared(full, wire.HeaderSize+lyingLimit),
			replyDeclared(full, len(full))}, maxResp: lyingLimit, attempts: 3, maxAlloc: 4 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, attempts := stubServer(t, tc.replies)
			rec := new(lengthRecorder)
			cfg := fastCfg()
			cfg.MaxResponseBytes = tc.maxResp
			cfg.HTTPClient = &http.Client{Transport: rec}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ahat, _, err := New(srv.URL, cfg).Sketch(context.Background(), testMatrix(t), 2, core.Options{})
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc > 0 && alloc > tc.maxAlloc*uint64(tc.attempts) {
				t.Errorf("%d attempts allocated %d bytes, want <= %d per attempt", tc.attempts, alloc, tc.maxAlloc)
			}
			if chunked := strings.HasPrefix(tc.name, "chunked"); len(rec.lengths) == 0 || (rec.lengths[0] < 0) != chunked {
				t.Fatalf("response Content-Lengths %v: the case must be read with chunked=%v", rec.lengths, chunked)
			}
			switch {
			case tc.sentinel == nil && err != nil:
				t.Fatalf("Sketch: %v", err)
			case tc.sentinel == nil && (ahat.Rows != 2 || ahat.Cols != 3 || ahat.At(1, 2) != 21):
				t.Fatalf("decoded sketch %dx%d differs from the frame's", ahat.Rows, ahat.Cols)
			case tc.sentinel != nil && !errors.Is(err, tc.sentinel):
				t.Fatalf("err = %v, want Is(%v)", err, tc.sentinel)
			}
			if got := attempts.Load(); got != tc.attempts {
				t.Errorf("attempts = %d, want %d", got, tc.attempts)
			}
		})
	}
}

// TestSketchRejectsTrailingBytes: a response body is exactly one frame. A
// valid frame followed by more bytes is malformed, and not retried.
func TestSketchRejectsTrailingBytes(t *testing.T) {
	srv, attempts := stubServer(t, []func(http.ResponseWriter, *http.Request){
		replyFrame(append(okResponseFrame(t), 0), http.StatusOK),
	})
	_, _, err := New(srv.URL, fastCfg()).Sketch(context.Background(), testMatrix(t), 2, core.Options{})
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("err = %v, want Is(wire.ErrMalformed)", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
}
