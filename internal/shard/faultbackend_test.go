package shard

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
)

// Fault is one scripted misbehaviour for a FlakyBackend call: sleep Delay
// first (ctx-aware), then fail with Err, or Hang until the caller's
// context dies. The zero Fault is a pass-through.
type Fault struct {
	Delay time.Duration
	Err   error
	Hang  bool
}

// FlakyBackend wraps a real service.Backend with a per-call fault script —
// the reusable fault-injection surface of the shard suite. The script sees
// the zero-based call number and the request, so tests express "hang the
// first call", "delay every call by 60ms", or "error calls for matrices
// wider than 50 columns" as one function. Counters record what actually
// happened: calls admitted, hangs entered, and hangs released by
// cancellation — the observable proof that a losing hedge attempt was
// torn down rather than left running.
type FlakyBackend struct {
	inner    service.Backend
	script   atomic.Pointer[faultScript]
	calls    atomic.Int64
	hangs    atomic.Int64
	canceled atomic.Int64
}

type faultScript = func(call int64, a *sparse.CSC, d int) Fault

// NewFlakyBackend wraps inner with script (nil scripts nothing).
func NewFlakyBackend(inner service.Backend, script faultScript) *FlakyBackend {
	f := &FlakyBackend{inner: inner}
	f.SetScript(script)
	return f
}

// SetScript swaps the fault script at runtime — tests that must learn
// which worker the ring routes to before deciding who misbehaves script
// the chosen worker after the coordinator is built.
func (f *FlakyBackend) SetScript(script faultScript) {
	if script == nil {
		script = func(int64, *sparse.CSC, int) Fault { return Fault{} }
	}
	f.script.Store(&script)
}

// Calls returns how many sketch calls were admitted (batch items count
// individually).
func (f *FlakyBackend) Calls() int64 { return f.calls.Load() }

// Canceled returns how many hanging or delayed calls were released by
// context cancellation.
func (f *FlakyBackend) Canceled() int64 { return f.canceled.Load() }

// fault runs the script for one call: it sleeps or hangs as scripted
// (released early by ctx) and returns the scripted error, if any.
func (f *FlakyBackend) fault(ctx context.Context, a *sparse.CSC, d int) error {
	call := f.calls.Add(1) - 1
	fault := (*f.script.Load())(call, a, d)
	if fault.Hang {
		f.hangs.Add(1)
		<-ctx.Done()
		f.canceled.Add(1)
		return ctx.Err()
	}
	if fault.Delay > 0 {
		t := time.NewTimer(fault.Delay)
		select {
		case <-ctx.Done():
			t.Stop()
			f.canceled.Add(1)
			return ctx.Err()
		case <-t.C:
		}
	}
	return fault.Err
}

func (f *FlakyBackend) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	if err := f.fault(ctx, a, d); err != nil {
		return nil, core.Stats{}, err
	}
	return f.inner.Sketch(ctx, a, d, opts)
}

// SketchBatch applies the script per item, so batch-borne shards hit the
// same faults as single RPCs, and writes each result into the item's
// Ahat when it is set, as the Backend contract asks.
func (f *FlakyBackend) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	resps := make([]service.Response, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		if err := f.fault(ctx, r.A, r.D); err != nil {
			resps[i] = service.Response{Err: err}
			continue
		}
		resps[i] = f.inner.SketchBatch(ctx, []service.Request{*r})[0]
	}
	return resps
}

func (f *FlakyBackend) Close() { f.inner.Close() }

// flakyWorker is one full-stack worker whose backend is a FlakyBackend:
// real HTTP handler, real codec, scripted faults underneath.
type flakyWorker struct {
	flaky *FlakyBackend
	srv   *httptest.Server
}

// startFlakyWorkers brings up n workers, each wrapping a real service in a
// FlakyBackend driven by script(i) (nil for a clean worker). Returns the
// workers and their URLs, index-aligned.
func startFlakyWorkers(t *testing.T, n int, script func(i int) faultScript) ([]*flakyWorker, []string) {
	t.Helper()
	ws := make([]*flakyWorker, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Capacity: 8, MaxInFlight: 8})
		var s faultScript
		if script != nil {
			s = script(i)
		}
		flaky := NewFlakyBackend(svc, s)
		srv := httptest.NewServer(server.NewBackend(flaky, server.Config{}).Handler())
		ws[i] = &flakyWorker{flaky: flaky, srv: srv}
		urls[i] = srv.URL
		t.Cleanup(func() { srv.Close(); svc.Close() })
	}
	return ws, urls
}

// workerByURL maps a routed peer URL back to its flaky worker, so a test
// can determine the primary at runtime (consistent hashing picks it) and
// script exactly that worker's behaviour.
func workerByURL(t *testing.T, ws []*flakyWorker, urls []string, url string) *flakyWorker {
	t.Helper()
	for i, u := range urls {
		if u == url {
			return ws[i]
		}
	}
	t.Fatalf("no worker with url %s", url)
	return nil
}
