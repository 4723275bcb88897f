package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// spanSum accumulates the durations of one kind of benchmark-side span.
type spanSum struct{ ns, n atomic.Int64 }

func (s *spanSum) add(d time.Duration) {
	s.ns.Add(int64(d))
	s.n.Add(1)
}

func (s *spanSum) reset() {
	s.ns.Store(0)
	s.n.Store(0)
}

func (s *spanSum) total() time.Duration { return time.Duration(s.ns.Load()) }

func (s *spanSum) count() int64 { return s.n.Load() }

// scrape reads a registry through the same text exposition /metrics serves.
func scrape(r *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		return nil
	}
	m, err := obs.ParseText(&b)
	if err != nil {
		return nil
	}
	return m
}

// delta is the change of a registry between two scrapes.
type delta struct{ before, after map[string]float64 }

func (d delta) get(key string) float64 { return d.after[key] - d.before[key] }

// sumPrefix sums the change of every series whose key starts with prefix
// (the per-label series of one family).
func (d delta) sumPrefix(prefix string) float64 {
	var s float64
	for k, v := range d.after {
		if strings.HasPrefix(k, prefix) {
			s += v - d.before[k]
		}
	}
	return s
}

// meanMS is a histogram family's mean observation in milliseconds.
func (d delta) meanMS(family string) float64 {
	return ratio(d.get(family+"_sum")*1e3, d.get(family+"_count"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracingTransport spans each HTTP exchange from RoundTrip until the
// caller closes the response body, which the client does after reading it.
type tracingTransport struct {
	base  http.RoundTripper
	spans *spanSum
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.spans.add(time.Since(t0))
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t0: t0, spans: t.spans}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t0    time.Time
	spans *spanSum
	once  sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.spans.add(time.Since(b.t0)) })
	return err
}

// httpClient returns a private keep-alive client; with spans set, every
// exchange is recorded. dial maps host:port names to the addresses to
// connect to instead.
func httpClient(spans *spanSum, dial map[string]string) (*http.Client, func()) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	if dial != nil {
		var d net.Dialer
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := dial[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		}
	}
	var rt http.RoundTripper = tr
	if spans != nil {
		rt = &tracingTransport{base: tr, spans: spans}
	}
	return &http.Client{Transport: rt}, tr.CloseIdleConnections
}

type inHandlerKey struct{}

// tracingHandler spans each request the server handles and marks its
// context, so a backend call can tell a handler's work from a job's.
func tracingHandler(h http.Handler, spans *spanSum) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), inHandlerKey{}, true)))
		spans.add(time.Since(t0))
	})
}

// serverSpans are the spans a traced loopback server records.
type serverSpans struct {
	handler spanSum // whole handler
	backend spanSum // backend calls made inside a handler
	job     spanSum // backend calls made by async jobs
}

func (s *serverSpans) reset() {
	s.handler.reset()
	s.backend.reset()
	s.job.reset()
}

// tracedBackend wraps the local service and spans every call into it.
type tracedBackend struct {
	svc   *service.Service
	spans *serverSpans
}

func (b *tracedBackend) span(ctx context.Context, t0 time.Time) {
	if ctx.Value(inHandlerKey{}) != nil {
		b.spans.backend.add(time.Since(t0))
	} else {
		b.spans.job.add(time.Since(t0))
	}
}

func (b *tracedBackend) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	defer b.span(ctx, time.Now())
	return b.svc.Sketch(ctx, a, d, opts)
}

func (b *tracedBackend) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	defer b.span(ctx, time.Now())
	return b.svc.SketchBatch(ctx, reqs)
}

func (b *tracedBackend) Close() { b.svc.Close() }

func (b *tracedBackend) PutMatrix(ctx context.Context, a *sparse.CSC) (store.Info, error) {
	defer b.span(ctx, time.Now())
	return b.svc.PutMatrix(ctx, a)
}

func (b *tracedBackend) SketchRef(ctx context.Context, fp sparse.Fingerprint, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	defer b.span(ctx, time.Now())
	return b.svc.SketchRef(ctx, fp, d, opts)
}

func (b *tracedBackend) PatchMatrix(ctx context.Context, fp sparse.Fingerprint, delta *sparse.CSC) (store.Info, error) {
	defer b.span(ctx, time.Now())
	return b.svc.PatchMatrix(ctx, fp, delta)
}

func (b *tracedBackend) Solve(ctx context.Context, req *service.SolveRequest) (*service.SolveResult, error) {
	defer b.span(ctx, time.Now())
	return b.svc.Solve(ctx, req)
}

// node is one in-process sketchd with default settings: a service behind
// the HTTP server on a loopback listener. Traced nodes wrap the service in a tracedBackend and
// the handler in tracingHandler.
type node struct {
	url   string // http://host:port of the listener
	svc   *service.Service
	srv   *server.Server
	hs    *http.Server
	done  chan struct{}
	spans *serverSpans // nil when untraced
}

func startNode(traced bool) (*node, error) {
	svc := service.New(service.Config{})
	n := &node{svc: svc, done: make(chan struct{})}
	if traced {
		n.spans = &serverSpans{}
		n.srv = server.NewBackend(&tracedBackend{svc: svc, spans: n.spans}, server.Config{Metrics: svc.Registry()})
	} else {
		n.srv = server.New(svc, server.Config{})
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := n.srv.Handler()
	if traced {
		h = tracingHandler(h, &n.spans.handler)
	}
	n.hs = &http.Server{Handler: h}
	n.url = "http://" + l.Addr().String()
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(l) // returns http.ErrServerClosed after close
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx) // a timed-out drain still closes the listener
	<-n.done
	_ = n.srv.Shutdown(ctx) // closes the job manager; HTTP is already down
	n.svc.Close()
}
