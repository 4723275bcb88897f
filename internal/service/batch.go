package service

import (
	"context"
	"sync"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
)

// Request is one sketch in a batch. Ahat, when non-nil, receives the result
// in place (it must be d×n); when nil a fresh matrix is allocated.
type Request struct {
	A    *sparse.CSC
	D    int
	Opts core.Options
	Ahat *dense.Matrix
}

// Response is the outcome of one batched Request, index-aligned with the
// input slice.
type Response struct {
	Ahat  *dense.Matrix
	Stats core.Stats
	Err   error
}

// SketchBatch serves many requests as one unit of work: requests are
// grouped by plan key, each distinct plan is resolved against the cache
// once, and a group's requests execute back-to-back on the hot plan —
// amortising fingerprint/lookup/refcount per group and maximising plan
// residency. Groups run concurrently, each through its own admission slot,
// so a batch cannot monopolise the service beyond its distinct-plan count.
//
// The per-request results are bit-identical to issuing the same calls
// individually; a failed group fails only its own requests.
func (s *Service) SketchBatch(ctx context.Context, reqs []Request) []Response {
	start := time.Now()
	out := make([]Response, len(reqs))

	// Group by plan key, preserving request order within a group.
	type group struct{ idxs []int }
	groups := make(map[planKey]*group)
	var order []planKey
	for i, r := range reqs {
		if r.A == nil {
			out[i].Err = core.ErrNilMatrix
			continue
		}
		if r.D <= 0 {
			out[i].Err = core.ErrInvalidSketchSize
			continue
		}
		k := planKey{fp: r.A.Fingerprint(), d: r.D, opts: r.Opts}
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.idxs = append(g.idxs, i)
	}

	run := func(k planKey, idxs []int) {
		fail := func(err error) {
			for _, i := range idxs {
				out[i].Err = err
			}
		}
		gctx := ctx
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			gctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if err := s.admit(gctx); err != nil {
			fail(err)
			return
		}
		defer s.exit()
		p, e, err := s.plan(gctx, k, planSrc{a: reqs[idxs[0]].A})
		if err != nil {
			fail(err)
			return
		}
		defer p.Release()
		for _, i := range idxs {
			ahat := reqs[i].Ahat
			if ahat == nil {
				ahat = dense.NewMatrix(k.d, reqs[i].A.N)
			}
			st, err := p.ExecuteContext(gctx, ahat)
			if err != nil {
				if gctx.Err() != nil {
					s.met.cancels.Inc()
				}
				out[i].Err = err
				continue
			}
			e.record(st)
			s.met.latency.Observe(time.Since(start))
			out[i] = Response{Ahat: ahat, Stats: st}
		}
	}
	// A lone group — a single request, or a batch over one plan — runs on
	// the caller's goroutine.
	if len(order) == 1 {
		run(order[0], groups[order[0]].idxs)
		return out
	}
	var wg sync.WaitGroup
	for _, k := range order {
		wg.Add(1)
		go func(k planKey, idxs []int) {
			defer wg.Done()
			run(k, idxs)
		}(k, groups[k].idxs)
	}
	wg.Wait()
	return out
}
