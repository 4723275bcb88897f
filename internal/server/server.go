// Package server fronts the concurrent sketch service over HTTP: it is the
// network face of the paper's traffic-shape win. A request body carries the
// compact CSC payload plus a seed and distribution — never the dense random
// matrix S — and the response carries only the small d×n sketch Â, so a
// remote sketch moves O(nnz(A) + d·n) bytes while the server regenerates
// the O(d·m) matrix S on the fly inside the cached plan's kernels.
//
// Endpoints:
//
//	POST /v1/sketch   wire.MsgSketchRequest, wire.MsgSketchRef,
//	                  wire.MsgBatchRequest or wire.MsgShardBatchRequest
//	                  body; responds with the matching response frame
//	                  (sketch.go). The HTTP status mirrors the wire
//	                  status (200 OK, 400 invalid, 404 unknown fingerprint,
//	                  429 overloaded, 503 draining/closed, 504 deadline),
//	                  but clients should classify by the wire status — it
//	                  survives proxies that rewrite HTTP codes.
//	PUT  /v1/matrix   upload a matrix into the content-addressed store;
//	PATCH /v1/matrix/{fp}  apply a sparse delta — see matrix.go.
//	GET  /healthz     "ok" while serving, 503 once draining.
//	GET  /stats       JSON snapshot: the service counters, the raw log₂
//	                  latency histogram with p50/p90/p95/p99 (via
//	                  service.Stats.LatencyQuantile — one home for the
//	                  bucket math), and the server's own transport counters.
//	GET  /metrics     Prometheus text exposition (obs.Registry.WriteText) of
//	                  the same atomics /stats reads: the service families,
//	                  the plan execute families, and the sketchsp_http_*
//	                  transport families (per-status response counters and
//	                  decode/execute/encode stage histograms).
//	GET  /debug/pprof/*  net/http/pprof, mounted only when Config.Pprof is
//	                  set (the daemon's -pprof flag).
//
// Backpressure and lifecycle compose with the layers below: admission
// control and shedding live in service.Service (ErrOverloaded becomes
// StatusOverloaded, the only retryable status); per-request deadlines —
// the tighter of Config.RequestTimeout and the client's
// X-Sketchsp-Timeout-Ms header — ride the request context into
// Plan.ExecuteContext, so a dead client stops burning worker time; and
// Shutdown drains in-flight requests before the daemon releases the
// service's cached plans.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/jobs"
	"sketchsp/internal/obs"
	"sketchsp/internal/service"
	"sketchsp/internal/wire"
)

// DefaultSolveSyncNNZ is the nnz(A) threshold above which POST /v1/solve
// answers 202 Accepted and runs the solve as a job instead of holding the
// connection open.
const DefaultSolveSyncNNZ = 1 << 20

// Config sizes the HTTP layer. The zero value selects the defaults.
type Config struct {
	// MaxBodyBytes bounds a request body (enforced with
	// http.MaxBytesReader before any decoding). 0 selects 1 GiB.
	MaxBodyBytes int64
	// MaxSketchBytes bounds the d×n response a single request may demand
	// (8·d·n bytes, n counted as at least 1); beyond it the request is
	// rejected with StatusBadOptions instead of allocating. 0 selects 1 GiB.
	MaxSketchBytes int64
	// RequestTimeout, when positive, caps every request's deadline. A
	// client-supplied X-Sketchsp-Timeout-Ms header can only tighten it.
	RequestTimeout time.Duration
	// Metrics is the registry /metrics serves and the transport families
	// register on. nil selects the service's own registry, which is the
	// right default: one registry per serving stack, so the scrape carries
	// the HTTP, service and plan families together.
	Metrics *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: profiling endpoints on a serving port are an operator
	// decision (the daemon's -pprof flag).
	Pprof bool
	// SolveSyncNNZ is the matrix-size threshold (in nonzeros) above which
	// POST /v1/solve becomes a job even without the Async flag. 0 selects
	// DefaultSolveSyncNNZ; negative forces every solve asynchronous.
	SolveSyncNNZ int
	// Jobs sizes the async solve job manager (workers, queue, result TTL
	// and budget). A nil Jobs.Metrics inherits Config.Metrics. Only used
	// when the backend implements service.SolveBackend.
	Jobs jobs.Config
}

// Server is the HTTP serving layer over a service.Backend. Create with New
// (local plan-cache service) or NewBackend (any Backend — the shard
// coordinator's path), mount Handler (or use Serve/Shutdown for the daemon
// lifecycle).
type Server struct {
	svc     *service.Service // non-nil only in New mode; /stats reads it
	backend service.Backend
	cfg     Config
	mux     *http.ServeMux

	httpMu   sync.Mutex
	httpSrv  *http.Server
	draining atomic.Bool

	// Transport counters and stage histograms (metrics.go), exposed under
	// "server" in /stats and as sketchsp_http_* in /metrics — one set of
	// atomics behind both views.
	met *httpMetrics

	// Async solve jobs (solve.go): created only when the backend
	// implements service.SolveBackend, nil otherwise.
	jobs *jobs.Manager

	scratch sync.Pool // *reqScratch
}

// reqScratch is the pooled per-request workspace: the body buffer, the
// decoded single request (whose CSC slices are reused across requests),
// the /v1/sketch items, and the single-response frame buffer.
type reqScratch struct {
	body  []byte
	req   wire.SketchRequest
	items []sketchItem
	out   []byte
}

// New returns a Server fronting the local plan-cache service svc.
func New(svc *service.Service, cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = svc.Registry()
	}
	s := newServer(svc, cfg)
	s.svc = svc
	return s
}

// NewBackend returns a Server fronting an arbitrary Backend — this is how a
// shard coordinator becomes a sketchd: the handler, codec, deadline and
// drain layers are identical, only the execution strategy behind
// Backend.Sketch differs. The /stats service block is zero in this mode
// (the backend's own metrics live in cfg.Metrics, served at /metrics).
func NewBackend(b service.Backend, cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return newServer(b, cfg)
}

func newServer(b service.Backend, cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	if cfg.MaxSketchBytes <= 0 {
		cfg.MaxSketchBytes = 1 << 30
	}
	s := &Server{backend: b, cfg: cfg, mux: http.NewServeMux(),
		met: newHTTPMetrics(cfg.Metrics)}
	s.scratch.New = func() interface{} { return new(reqScratch) }
	if _, ok := b.(service.SolveBackend); ok {
		jcfg := cfg.Jobs
		if jcfg.Metrics == nil {
			jcfg.Metrics = cfg.Metrics
		}
		s.jobs = jobs.New(jcfg)
	}
	s.mux.HandleFunc("/v1/sketch", s.handleSketch)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/matrix", s.handleMatrixPut)
	s.mux.HandleFunc("/v1/matrix/", s.handleMatrixPatch)
	if _, ok := b.(service.PeerAdmin); ok {
		s.mux.HandleFunc("/v1/peers", s.handlePeers)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.Handle("/metrics", cfg.Metrics.Handler())
	if cfg.Pprof {
		// Explicit wiring: the package's init only registers on
		// http.DefaultServeMux, which this server never serves.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like http.Server.Serve.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// Shutdown drains gracefully: /healthz flips to 503 (so load balancers
// stop routing here), listeners close, and in-flight requests get until
// ctx's deadline to finish. Once HTTP has drained the job manager is
// closed — queued jobs cancel, running ones have their contexts fired.
// The service itself is left to the caller — the daemon closes it after
// the drain so executing plans stay alive.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if s.jobs != nil {
		s.jobs.Close()
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// requestContext applies the effective deadline: the tighter of the server
// cap and the client's X-Sketchsp-Timeout-Ms header.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Sketchsp-Timeout-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("%w: bad X-Sketchsp-Timeout-Ms %q", wire.ErrMalformed, h)
		}
		d := time.Duration(ms) * time.Millisecond
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// httpStatus maps a wire status onto the closest HTTP status code.
func httpStatus(st wire.Status) int {
	switch st {
	case wire.StatusOK:
		return http.StatusOK
	case wire.StatusOverloaded:
		return http.StatusTooManyRequests
	case wire.StatusClosed:
		return http.StatusServiceUnavailable
	case wire.StatusDeadlineExceeded:
		return http.StatusGatewayTimeout
	case wire.StatusCanceled:
		return 499 // client closed request (nginx convention)
	case wire.StatusInternal:
		return http.StatusInternalServerError
	case wire.StatusNotFound, wire.StatusJobNotFound:
		return http.StatusNotFound
	default: // invalid matrix / sketch size / options / malformed bytes
		return http.StatusBadRequest
	}
}

// decodeFrame is the decode stage of the endpoints that take one frame
// type: the body, its one frame of type want with nothing after it, the
// payload by decode. A
// failure is answered in response type resp and counted as a bad request;
// a decoded frame counts as a request.
func decodeFrame[T any](s *Server, sc *reqScratch, w http.ResponseWriter, r *http.Request,
	want, resp wire.MsgType, decode func([]byte) (T, error)) (T, bool) {
	dsp := obs.StartSpan(s.met.decode)
	var v T
	body, err := s.readBody(sc, w, r)
	if err == nil {
		var typ wire.MsgType
		var payload []byte
		var rest []byte
		if typ, payload, rest, err = wire.SplitFrame(body, int(s.cfg.MaxBodyBytes)); err == nil {
			if typ != want {
				err = fmt.Errorf("%w: unexpected message type %v", wire.ErrMalformed, typ)
			} else if err = wire.NoTrailing(rest); err == nil {
				v, err = decode(payload)
			}
		}
	}
	dsp.End()
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, resp, wire.StatusOf(err), err.Error())
		return v, false
	}
	s.met.requests.Inc()
	return v, true
}

// readBody consumes the request body into the pooled buffer under the
// MaxBodyBytes bound.
func (s *Server) readBody(sc *reqScratch, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	lr := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := sc.body[:0]
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, fmt.Errorf("%w: body exceeds %d bytes", wire.ErrTooLarge, s.cfg.MaxBodyBytes)
			}
			return nil, fmt.Errorf("%w: reading body: %v", wire.ErrMalformed, err)
		}
	}
	sc.body = buf
	s.met.bytesIn.Add(int64(len(buf)))
	return buf, nil
}

// writeError answers with the error payload of response type typ: the
// shared error form, wrapped as a batch of one item for the batch types.
func (s *Server) writeError(w http.ResponseWriter, typ wire.MsgType, st wire.Status, detail string) {
	// An error payload is a status byte plus a short detail string — it
	// cannot reach the frame limit, so the framing error is impossible.
	frame, _ := wire.AppendFrame(nil, typ, wire.ErrorPayloadSize(typ, detail), func(dst []byte) []byte {
		return wire.AppendErrorPayload(dst, typ, st, detail)
	})
	s.writeFrame(w, httpStatus(st), frame)
}

func (s *Server) writeFrame(w http.ResponseWriter, httpCode int, frame []byte) {
	w.Header().Set("Content-Type", "application/x-sketchsp-wire")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(httpCode)
	s.met.countCode(httpCode)
	n, _ := w.Write(frame)
	s.met.bytesOut.Add(int64(n))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// StatsSnapshot is the /stats JSON document: the service snapshot (with
// its raw histogram), quantiles derived through the shared bucket math,
// and the HTTP layer's own counters. Durations are reported in
// microseconds for dashboard friendliness.
type StatsSnapshot struct {
	Service      service.Stats `json:"service"`
	LatencyP50us int64         `json:"latency_p50_us"`
	LatencyP90us int64         `json:"latency_p90_us"`
	LatencyP95us int64         `json:"latency_p95_us"`
	LatencyP99us int64         `json:"latency_p99_us"`
	Server       ServerStats   `json:"server"`
}

// ServerStats are the transport-level counters of the HTTP layer.
type ServerStats struct {
	Requests    int64 `json:"requests"`
	BadRequests int64 `json:"bad_requests"`
	BytesIn     int64 `json:"bytes_in"`
	BytesOut    int64 `json:"bytes_out"`
	Draining    bool  `json:"draining"`
}

// Stats returns the combined snapshot (also served at /stats). In NewBackend
// mode there is no local service; the service block stays zero (safe: the
// zero snapshot's LatencyQuantile is 0) and only the transport counters move.
func (s *Server) Stats() StatsSnapshot {
	var st service.Stats
	if s.svc != nil {
		st = s.svc.Stats()
	}
	return StatsSnapshot{
		Service:      st,
		LatencyP50us: st.LatencyQuantile(0.50).Microseconds(),
		LatencyP90us: st.LatencyQuantile(0.90).Microseconds(),
		LatencyP95us: st.LatencyQuantile(0.95).Microseconds(),
		LatencyP99us: st.LatencyQuantile(0.99).Microseconds(),
		Server: ServerStats{
			Requests:    s.met.requests.Value(),
			BadRequests: s.met.badRequests.Value(),
			BytesIn:     s.met.bytesIn.Value(),
			BytesOut:    s.met.bytesOut.Value(),
			Draining:    s.draining.Load(),
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	buf, err := json.MarshalIndent(s.Stats(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}
