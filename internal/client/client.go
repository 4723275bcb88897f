// Package client is the Go client of the sketch serving layer. It speaks the
// internal/wire binary codec over HTTP to a sketchd server (internal/server),
// reuses connections through a shared http.Transport, bounds every attempt
// with its own timeout, and retries with capped exponential backoff plus
// jitter — but only when retrying can help: on transport errors and on
// wire.StatusOverloaded (the server is healthy but saturated). Invalid-input
// statuses, closed servers and context cancellation fail immediately; a
// malformed matrix does not become valid by resending it.
//
// Errors surface as *wire.StatusError unwrapping to the same sentinels the
// in-process API uses, so errors.Is(err, service.ErrOverloaded) and
// errors.Is(err, core.ErrInvalidMatrix) hold identically whether the sketch
// ran locally or across the network.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/pool"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// Config tunes the client's retry and timeout behaviour. The zero value
// selects the defaults noted on each field.
type Config struct {
	// MaxRetries bounds how many times a retryable failure is reissued
	// after the first attempt (default 3, so up to 4 attempts total).
	// Negative disables retries.
	MaxRetries int
	// BaseBackoff is the sleep before the first retry (default 10ms);
	// attempt k sleeps BaseBackoff·2^k, capped at MaxBackoff, each with
	// ±50% jitter so synchronized clients do not re-stampede a server that
	// shed them all at once.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt (default 0 = none
	// beyond the caller's context). The caller's context still bounds the
	// whole call including backoff sleeps.
	AttemptTimeout time.Duration
	// MaxResponseBytes bounds a response frame's payload (default
	// wire.DefaultMaxPayload).
	MaxResponseBytes int
	// HTTPClient overrides the underlying client (default: a shared
	// keep-alive transport). Tests inject httptest clients here.
	HTTPClient *http.Client
	// Metrics, when non-nil, registers the sketchsp_client_* families
	// (requests, retries, per-cause attempt failures, whole-call latency) on
	// the given registry. nil — the default — records nothing.
	Metrics *obs.Registry
}

const (
	defaultMaxRetries  = 3
	defaultBaseBackoff = 10 * time.Millisecond
	defaultMaxBackoff  = time.Second
)

// Client issues sketch requests to one server. It is safe for concurrent
// use; connection reuse comes from the underlying http.Transport keep-alive
// pool.
type Client struct {
	base string
	cfg  Config
	http *http.Client
	met  *clientMetrics // nil when Config.Metrics is nil

	mu  sync.Mutex
	rnd *rand.Rand
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:7464"). A trailing slash is trimmed.
func New(baseURL string, cfg Config) *Client {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = defaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = defaultMaxBackoff
	}
	if cfg.MaxResponseBytes <= 0 {
		cfg.MaxResponseBytes = wire.DefaultMaxPayload
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: http.DefaultTransport}
	}
	var met *clientMetrics
	if cfg.Metrics != nil {
		met = newClientMetrics(cfg.Metrics)
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		cfg:  cfg,
		http: hc,
		met:  met,
		rnd:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Sketch computes Â = S·A on the server, shipping only the CSC input and
// the seed/distribution that describe S. It retries per Config and returns
// the decoded sketch plus the server-side execute stats.
func (c *Client) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	if a == nil {
		return nil, core.Stats{}, core.ErrNilMatrix
	}
	return c.postSketch(ctx, func(dst []byte) ([]byte, error) { return wire.AppendRequestFrame(dst, d, opts, a) })
}

// postSketch posts a single sketch request frame (inline or by-ref) and
// decodes the MsgSketchResponse both answer with.
func (c *Client) postSketch(ctx context.Context, encode frameFunc) (*dense.Matrix, core.Stats, error) {
	var resp *wire.SketchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sketch", encode, into(&resp, wire.DecodeResponse)); err != nil {
		return nil, core.Stats{}, err
	}
	if err := resp.Err(); err != nil {
		return nil, core.Stats{}, err
	}
	return resp.Ahat, resp.Stats, nil
}

// SketchBatch issues reqs as one batch request and returns the index-aligned
// responses. The batch is retried as a whole only while every failure in it
// is retryable (the server sheds whole batches at admission); per-item
// outcomes are reported in the returned slice, not as an error.
func (c *Client) SketchBatch(ctx context.Context, reqs []wire.SketchRequest) ([]wire.SketchResponse, error) {
	for i := range reqs {
		if reqs[i].A == nil {
			return nil, fmt.Errorf("%w: batch item %d", core.ErrNilMatrix, i)
		}
	}
	return postBatch(c, ctx, len(reqs), func(dst []byte) ([]byte, error) { return wire.AppendBatchRequestFrame(dst, reqs) },
		wire.DecodeBatchResponse, (*wire.SketchResponse).Err)
}

// SketchShardBatch issues column shards of one sketch as a single
// MsgShardBatchRequest — the coordinator's only shard frame, one per peer
// and request (a lone shard is a batch of one) — and decodes the
// index-aligned shard responses into rs, reusing the capacity of its
// partials. It shares Sketch's error taxonomy and SketchBatch's retry and
// count rules. The returned slice carries rs's scratch even on an error.
func (c *Client) SketchShardBatch(ctx context.Context, reqs []wire.ShardRequest, rs []wire.ShardResponse) ([]wire.ShardResponse, error) {
	for i := range reqs {
		if reqs[i].A == nil {
			return rs, fmt.Errorf("%w: shard batch item %d", core.ErrNilMatrix, i)
		}
	}
	_, err := postBatch(c, ctx, len(reqs), func(dst []byte) ([]byte, error) { return wire.AppendShardBatchRequestFrame(dst, reqs) },
		func(payload []byte) ([]wire.ShardResponse, error) {
			var err error
			rs, err = wire.DecodeShardBatchResponseInto(rs, payload)
			return rs, err
		}, (*wire.ShardResponse).Err)
	return rs, err
}

// postBatch posts the frame encode builds for n batch items and decodes the
// index-aligned answer. A server that fails before per-item decoding
// (malformed bytes, response too large to frame) answers with a single
// error item; that status is surfaced instead of a count-mismatch artifact.
func postBatch[R any](c *Client, ctx context.Context, n int, encode frameFunc,
	decode func([]byte) ([]R, error), errOf func(*R) error) ([]R, error) {
	if n == 0 {
		return nil, nil
	}
	var rs []R
	if err := c.do(ctx, http.MethodPost, "/v1/sketch", encode, into(&rs, decode)); err != nil {
		return nil, err
	}
	if len(rs) != n {
		if len(rs) == 1 {
			if err := errOf(&rs[0]); err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("%w: batch response count %d for %d requests", wire.ErrMalformed, len(rs), n)
	}
	return rs, nil
}

// frameFunc appends one request frame to dst.
type frameFunc func(dst []byte) ([]byte, error)

// into returns a response decoder that stores decode's result in *dst.
func into[T any](dst *T, decode func([]byte) (T, error)) func(wire.MsgType, []byte) error {
	return func(_ wire.MsgType, payload []byte) (err error) {
		*dst, err = decode(payload)
		return err
	}
}

// do sends the frame encode builds (no body when encode is nil) to path
// until it gets a decodable response payload, a non-retryable failure, or
// runs out of retries, and hands the payload and its frame type to decode
// — POST /v1/solve, for one, answers MsgSolveResponse when it solved
// inline and MsgJobStatus when it queued a job. The request frame and the
// response body live in pooled buffers: decode must copy out whatever it
// keeps, because the body's buffer is reused once decode returns. A
// decode error is returned as it is, never retried.
func (c *Client) do(ctx context.Context, method, path string, encode frameFunc, decode func(wire.MsgType, []byte) error) error {
	body, err := newFrameBody(encode)
	if err != nil {
		return err
	}
	defer body.release()
	c.met.request()
	sp := c.met.span()
	defer sp.End()
	for attempt := 0; ; attempt++ {
		typ, payload, buf, err := c.attempt(ctx, method, path, body)
		if err == nil {
			err = decode(typ, payload)
			putBuf(buf)
			return err
		}
		putBuf(buf)
		c.met.attemptFailed(err)
		if attempt >= c.cfg.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return err
		}
		if c.sleep(ctx, c.backoff(attempt)) != nil {
			return err
		}
		c.met.retry()
	}
}

// attempt performs one HTTP exchange. Failures a retry could cure
// (transport errors, StatusOverloaded responses) come back retryable;
// everything else is final. The response body is read into a pooled
// buffer, which is returned, to be recycled by the caller once done with
// the payload, whenever one was taken, failures included.
func (c *Client) attempt(ctx context.Context, method, path string, body *frameBody) (wire.MsgType, []byte, *[]byte, error) {
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		if req.Body, err = body.reader(); err != nil {
			return 0, nil, nil, err
		}
		req.GetBody = body.reader
		req.ContentLength = int64(len(*body.buf))
	}
	req.Header.Set("Content-Type", "application/x-sketchsp-wire")
	if dl, ok := actx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Sketchsp-Timeout-Ms", strconv.FormatInt(ms, 10))
		}
	}
	hres, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, nil, nil, ctx.Err() // caller gave up; do not dress it as transport
		}
		return 0, nil, nil, &transportError{err: err}
	}
	defer hres.Body.Close()
	buf := getBuf()
	raw, err := c.readBody(ctx, hres, (*buf)[:0])
	*buf = raw[:0]
	if err != nil {
		return 0, nil, buf, err
	}
	t, payload, rest, err := wire.SplitFrame(raw, c.cfg.MaxResponseBytes)
	if err != nil {
		if errors.Is(err, wire.ErrTooLarge) {
			// The declared payload length exceeds our limit: resending the
			// same request gets the same oversized answer, so fail final
			// instead of dressing it as a retryable transport problem.
			return 0, nil, buf, err
		}
		// The server always answers in wire frames; anything else (a proxy
		// error page, a truncated stream) is a transport-level problem.
		return 0, nil, buf, &transportError{err: fmt.Errorf("http %d: %w", hres.StatusCode, err)}
	}
	switch t {
	case wire.MsgSketchResponse, wire.MsgBatchResponse, wire.MsgShardBatchResponse,
		wire.MsgMatrixInfo, wire.MsgSolveResponse, wire.MsgJobStatus:
	default:
		return 0, nil, buf, fmt.Errorf("%w: unexpected response frame type %v", wire.ErrMalformed, t)
	}
	// The body is exactly one frame; bytes after it make the response
	// malformed, as they make a request malformed at the server.
	if err := wire.NoTrailing(rest); err != nil {
		return 0, nil, buf, err
	}
	// Surface retryable wire statuses before handing the payload back, so
	// the retry loop sees them uniformly for single and batch responses.
	if err := statusPeek(t, payload); err != nil {
		return 0, nil, buf, err
	}
	return t, payload, buf, nil
}

// readBody reads one response body, at most HeaderSize+MaxResponseBytes
// bytes, into buf's capacity. A declared Content-Length is read by
// readDeclared, which allocates nothing when buf holds the length and at
// most bodyChunk when it does not; a body of unknown length (chunked) is
// read to its end. A body over the bound fails with ErrTooLarge, which no
// retry cures; a body cut short of its length is a retryable transport
// error. The returned slice is the buffer read into, even on an error.
func (c *Client) readBody(ctx context.Context, hres *http.Response, buf []byte) ([]byte, error) {
	limit := int64(wire.HeaderSize) + int64(c.cfg.MaxResponseBytes)
	tooLarge := func() error {
		return fmt.Errorf("%w: response body exceeds MaxResponseBytes %d", wire.ErrTooLarge, c.cfg.MaxResponseBytes)
	}
	var err error
	if n := hres.ContentLength; n >= 0 {
		if n > limit {
			return buf, tooLarge()
		}
		buf, err = readDeclared(hres.Body, n, buf)
	} else {
		// Read one byte past the limit so an oversized response is
		// distinguishable from an exactly-full one: a LimitReader at the
		// limit would silently truncate the body and misreport the
		// deterministic size overrun as a retryable "truncated payload"
		// transport error.
		buf, err = readAll(io.LimitReader(hres.Body, limit+1), buf)
	}
	if err != nil {
		if ctx.Err() != nil {
			return buf, ctx.Err()
		}
		return buf, &transportError{err: err}
	}
	if int64(len(buf)) > limit {
		return buf, tooLarge()
	}
	return buf, nil
}

// bodyChunk is the most readDeclared allocates before any byte arrives.
const bodyChunk = 1 << 20

// readDeclared reads a body of exactly n declared bytes into buf's
// capacity. When that is short it allocates at most bodyChunk up front
// and doubles the buffer, never past n, only as bytes arrive: a body that
// declares far more than it sends costs what was sent, not what was
// declared.
func readDeclared(r io.Reader, n int64, buf []byte) ([]byte, error) {
	if first := int(min(n, bodyChunk)); cap(buf) < first {
		buf = make([]byte, 0, first)
	}
	buf = buf[:0]
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*int64(cap(buf)))), buf...)
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), int(n))])
		buf = buf[:len(buf)+m]
		if err == io.EOF && int64(len(buf)) < n {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return buf, err
		}
	}
	return buf, nil
}

// readAll reads r to its end into buf's capacity, growing it as needed.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// bufPool holds the request frames and response bodies of finished calls
// for later calls to reuse.
var bufPool = pool.FreeList[*[]byte]{New: func() *[]byte { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get() }

// putBuf returns b to the pool unless it has grown past
// wire.MaxPooledBytes: one huge frame must not stay resident.
func putBuf(b *[]byte) {
	if b != nil && cap(*b) <= wire.MaxPooledBytes {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// frameBody is a request frame in a pooled buffer. net/http is handed a
// reader over it per attempt (and per rewind, through GetBody), and it may
// still read a body after Do has returned — on some error paths RoundTrip
// returns before its write loop is done with the body — so the buffer
// goes back to the pool only once the call has released it and every
// reader has been closed.
type frameBody struct {
	buf  *[]byte
	refs atomic.Int32 // the call's reference plus one per open reader
}

// newFrameBody encodes a frame into a pooled buffer; a nil encode is a
// request without a body (nil).
func newFrameBody(encode frameFunc) (*frameBody, error) {
	if encode == nil {
		return nil, nil
	}
	buf := getBuf()
	frame, err := encode((*buf)[:0])
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	*buf = frame
	fb := &frameBody{buf: buf}
	fb.refs.Store(1)
	return fb, nil
}

// reader opens a reader over the frame for net/http to send and close.
func (fb *frameBody) reader() (io.ReadCloser, error) {
	for {
		n := fb.refs.Load()
		if n == 0 {
			return nil, errors.New("client: request body reopened after its call ended")
		}
		if fb.refs.CompareAndSwap(n, n+1) {
			break
		}
	}
	r := &frameReader{body: fb}
	r.r.Reset(*fb.buf)
	return r, nil
}

// release drops one reference; the last one recycles the buffer.
func (fb *frameBody) release() {
	if fb != nil && fb.refs.Add(-1) == 0 {
		putBuf(fb.buf)
	}
}

// frameReader is one reader over a frameBody. Read and Close exclude each
// other, so the buffer cannot be recycled under a Read that net/http runs
// concurrently with a Close, and a Read after Close reads nothing.
type frameReader struct {
	mu   sync.Mutex
	r    bytes.Reader
	body *frameBody // nil once closed
}

func (fr *frameReader) Read(p []byte) (int, error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.body == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	return fr.r.Read(p)
}

func (fr *frameReader) Close() error {
	fr.mu.Lock()
	fb := fr.body
	fr.body = nil
	fr.mu.Unlock()
	fb.release()
	return nil
}

// statusPeek extracts a retry-relevant error from a response payload: for a
// single response its status, for a batch the overloaded status iff every
// item carries a retryable (or equally shed) failure. Non-retryable statuses
// return nil here — the caller decodes and reports them per item. Only
// status bytes are peeked; matrices are never materialized (the caller's
// decode stays the single full decode), and the one decode is of the
// shared error form, which carries only a detail string.
func statusPeek(t wire.MsgType, payload []byte) error {
	if t.IsBatch() {
		items, err := wire.SplitBatchPayload(payload)
		if err != nil || items.Count == 0 {
			return err
		}
		var first []byte
		for i := 0; i < items.Count; i++ {
			item := items.Next()
			if i == 0 {
				first = item
			}
			st, err := wire.PeekStatus(item)
			if err != nil || !st.Retryable() {
				return err
			}
		}
		payload = first // whole batch shed → retry the whole batch
	}
	st, err := wire.PeekStatus(payload)
	if err != nil || !st.Retryable() {
		return err
	}
	st, detail, err := wire.DecodeError(payload)
	if err != nil {
		return err
	}
	return st.Err(detail)
}

// transportError marks failures below the wire protocol (dial, reset,
// truncated body). Always retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryable reports whether a retry may cure err: transport failures and
// overload shed qualify; invalid inputs, closed servers, malformed frames
// and context expiry do not.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var se *wire.StatusError
	return errors.As(err, &se) && se.Code.Retryable()
}

// backoff returns the sleep before retry number attempt (0-based):
// BaseBackoff·2^attempt capped at MaxBackoff, jittered to [50%, 150%].
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 0; i < attempt && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	f := 0.5 + c.rnd.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
