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
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
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
	body, err := wire.EncodeRequestFrame(d, opts, a)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return c.postSketch(ctx, body)
}

// postSketch posts a single sketch request frame (inline or by-ref) and
// decodes the MsgSketchResponse both answer with.
func (c *Client) postSketch(ctx context.Context, body []byte) (*dense.Matrix, core.Stats, error) {
	payload, err := c.do(ctx, http.MethodPost, "/v1/sketch", body)
	if err != nil {
		return nil, core.Stats{}, err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
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
	return postBatch(c, ctx, len(reqs), func() ([]byte, error) { return wire.EncodeBatchRequestFrame(reqs) },
		wire.DecodeBatchResponse, (*wire.SketchResponse).Err)
}

// SketchShardBatch issues column shards of one sketch as a single
// MsgShardBatchRequest — the coordinator's only shard frame, one per peer
// and request (a lone shard is a batch of one) — and returns the
// index-aligned shard responses. It shares Sketch's error taxonomy and
// SketchBatch's retry and count rules.
func (c *Client) SketchShardBatch(ctx context.Context, reqs []wire.ShardRequest) ([]wire.ShardResponse, error) {
	for i := range reqs {
		if reqs[i].A == nil {
			return nil, fmt.Errorf("%w: shard batch item %d", core.ErrNilMatrix, i)
		}
	}
	return postBatch(c, ctx, len(reqs), func() ([]byte, error) { return wire.EncodeShardBatchRequestFrame(reqs) },
		wire.DecodeShardBatchResponse, (*wire.ShardResponse).Err)
}

// postBatch posts the frame encode builds for n batch items and decodes the
// index-aligned answer. A server that fails before per-item decoding
// (malformed bytes, response too large to frame) answers with a single
// error item; that status is surfaced instead of a count-mismatch artifact.
func postBatch[R any](c *Client, ctx context.Context, n int, encode func() ([]byte, error),
	decode func([]byte) ([]R, error), errOf func(*R) error) ([]R, error) {
	if n == 0 {
		return nil, nil
	}
	body, err := encode()
	if err != nil {
		return nil, err
	}
	payload, err := c.do(ctx, http.MethodPost, "/v1/sketch", body)
	if err != nil {
		return nil, err
	}
	rs, err := decode(payload)
	if err != nil {
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

// do sends the frame in body to path until it gets a decodable
// response payload, a non-retryable failure, or runs out of retries. The
// response payload is returned undecoded so single and batch callers share
// the retry loop.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	_, payload, err := c.doTyped(ctx, method, path, body)
	return payload, err
}

// doTyped is do for callers that dispatch on the response frame type —
// POST /v1/solve answers MsgSolveResponse when it solved inline and
// MsgJobStatus when it queued a job.
func (c *Client) doTyped(ctx context.Context, method, path string, body []byte) (wire.MsgType, []byte, error) {
	c.met.request()
	sp := c.met.span()
	defer sp.End()
	var lastErr error
	for attempt := 0; ; attempt++ {
		typ, payload, err := c.attempt(ctx, method, path, body)
		if err == nil {
			return typ, payload, nil
		}
		c.met.attemptFailed(err)
		lastErr = err
		if attempt >= c.cfg.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return 0, nil, lastErr
		}
		if err := c.sleep(ctx, c.backoff(attempt)); err != nil {
			return 0, nil, lastErr
		}
		c.met.retry()
	}
}

// attempt performs one HTTP exchange. Failures a retry could cure (transport errors,
// StatusOverloaded responses) come back retryable; everything else is final.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (wire.MsgType, []byte, error) {
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
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
			return 0, nil, ctx.Err() // caller gave up; do not dress it as transport
		}
		return 0, nil, &transportError{err: err}
	}
	defer hres.Body.Close()
	raw, err := c.readBody(ctx, hres)
	if err != nil {
		return 0, nil, err
	}
	t, payload, rest, err := wire.SplitFrame(raw, c.cfg.MaxResponseBytes)
	if err != nil {
		if errors.Is(err, wire.ErrTooLarge) {
			// The declared payload length exceeds our limit: resending the
			// same request gets the same oversized answer, so fail final
			// instead of dressing it as a retryable transport problem.
			return 0, nil, err
		}
		// The server always answers in wire frames; anything else (a proxy
		// error page, a truncated stream) is a transport-level problem.
		return 0, nil, &transportError{err: fmt.Errorf("http %d: %w", hres.StatusCode, err)}
	}
	switch t {
	case wire.MsgSketchResponse, wire.MsgBatchResponse, wire.MsgShardBatchResponse,
		wire.MsgMatrixInfo, wire.MsgSolveResponse, wire.MsgJobStatus:
	default:
		return 0, nil, fmt.Errorf("%w: unexpected response frame type %v", wire.ErrMalformed, t)
	}
	// The body is exactly one frame; bytes after it make the response
	// malformed, as they make a request malformed at the server.
	if err := wire.NoTrailing(rest); err != nil {
		return 0, nil, err
	}
	// Surface retryable wire statuses before handing the payload back, so
	// the retry loop sees them uniformly for single and batch responses.
	if err := statusPeek(t, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// readBody reads one response body, at most HeaderSize+MaxResponseBytes
// bytes. A declared Content-Length is read by readDeclared, which needs one
// allocation when the length is at most bodyChunk; a body of unknown length
// (chunked) is read to its end. A body over the bound fails with
// ErrTooLarge, which no retry cures; a body cut short of its length is a
// retryable transport error.
func (c *Client) readBody(ctx context.Context, hres *http.Response) ([]byte, error) {
	limit := int64(wire.HeaderSize) + int64(c.cfg.MaxResponseBytes)
	tooLarge := func() error {
		return fmt.Errorf("%w: response body exceeds MaxResponseBytes %d", wire.ErrTooLarge, c.cfg.MaxResponseBytes)
	}
	var raw []byte
	var err error
	if n := hres.ContentLength; n >= 0 {
		if n > limit {
			return nil, tooLarge()
		}
		raw, err = readDeclared(hres.Body, n)
	} else {
		// Read one byte past the limit so an oversized response is
		// distinguishable from an exactly-full one: a LimitReader at the
		// limit would silently truncate the body and misreport the
		// deterministic size overrun as a retryable "truncated payload"
		// transport error.
		raw, err = io.ReadAll(io.LimitReader(hres.Body, limit+1))
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &transportError{err: err}
	}
	if int64(len(raw)) > limit {
		return nil, tooLarge()
	}
	return raw, nil
}

// bodyChunk is the most readDeclared allocates before any byte arrives.
const bodyChunk = 1 << 20

// readDeclared reads a body of exactly n declared bytes. It allocates at
// most bodyChunk up front and doubles the buffer, never past n, only as
// bytes arrive: a body that declares far more than it sends costs what was
// sent, not what was declared.
func readDeclared(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, bodyChunk))
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*int64(cap(buf)))), buf...)
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF && int64(len(buf)) < n {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return buf, nil
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
		if err != nil || len(items) == 0 {
			return err
		}
		for _, item := range items {
			st, err := wire.PeekStatus(item)
			if err != nil || !st.Retryable() {
				return err
			}
		}
		payload = items[0] // whole batch shed → retry the whole batch
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
