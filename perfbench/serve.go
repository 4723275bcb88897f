package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// The serve workload: ≤2 clients against one in-process loopback server,
// mixing three operation classes. Matrices are small, so the wire, HTTP,
// service and store layers dominate and kernel time is a minority.
//
//   - inline: Sketch with the matrix in the request, drawn by Zipf
//     popularity from serveInline matrices, more than the plan cache's
//     default 16 entries, so plan builds and evictions happen every run;
//   - byref: SketchRef of an uploaded matrix (store read, sketch cache).
//     The by-ref matrices are large (serveByrefM rows): a hit costs the
//     same at any size, and a resident store of realistic size keeps the
//     heap, and with it the garbage collector's pace, closer to a serving
//     daemon's than a toy store would;
//   - patch: PatchMatrix of the caller's own base matrix with one of its
//     serveDeltas deltas (store write, incremental Â + S·ΔA), then
//     SketchRef of the patched matrix to read the result back.
//
// By latency the classes order byref < patch < inline. The shares put
// both p50 and p95 well inside the inline class (which spans the ranks
// from 0.35 to 1), away from the boundaries between classes.
const (
	serveInline = 24
	serveByref  = 16
	serveDeltas = 4
	serveM      = 1500
	serveN      = 200
	serveD      = 32
	serveByrefM = 20000

	serveWarmOps = 200 // per caller

	serveByrefShare = 0.25
	servePatchShare = 0.10
)

const (
	classInline = iota
	classByref
	classPatch
)

type serveOp struct{ class, k int }

func setupServe(cfg setupConfig) (*instance, error) {
	callers := min(2, runtime.NumCPU())
	n, err := startNode(cfg.traced)
	if err != nil {
		return nil, err
	}
	var rt *spanSum
	if cfg.traced {
		rt = &spanSum{}
	}
	hc, closeIdle := httpClient(rt, nil)
	cleanup := func() {
		n.close()
		closeIdle()
	}
	opts := core.Options{Dist: rng.Uniform11, Seed: uint64(cfg.seed), Workers: 1, Timed: cfg.traced}
	ref := opts
	ref.Timed = false
	ctx := context.Background()

	// References: key layout is inline | byref | patch (caller-major).
	var want [][]uint64
	inline := make([]*sparse.CSC, serveInline)
	for k := range inline {
		inline[k] = sparse.RandomUniform(serveM, serveN, 0.002, cfg.seed*1000+int64(k))
		rd, err := referenceDigest(inline[k], serveD, ref)
		if err != nil {
			cleanup()
			return nil, err
		}
		want = append(want, []uint64{rd})
	}
	clients := make([]*client.Client, callers)
	for c := range clients {
		clients[c] = client.New(n.url, client.Config{HTTPClient: hc})
	}
	byref := make([]sparse.Fingerprint, serveByref)
	for k := range byref {
		a := sparse.RandomUniform(serveByrefM, serveN, 0.025, cfg.seed*1000+500+int64(k))
		info, err := clients[0].PutMatrix(ctx, a)
		if err != nil {
			cleanup()
			return nil, err
		}
		byref[k] = info.Fp
		rd, err := referenceDigest(a, serveD, ref)
		if err != nil {
			cleanup()
			return nil, err
		}
		want = append(want, []uint64{rd})
	}
	// Each caller owns one base matrix and its deltas, so its patch
	// sequence does not depend on the other caller's.
	bases := make([]sparse.Fingerprint, callers)
	deltas := make([][]*sparse.CSC, callers)
	patched := make([][]sparse.Fingerprint, callers)
	for c := 0; c < callers; c++ {
		base := sparse.RandomUniform(serveM, serveN, 0.002, cfg.seed*1000+900+int64(c))
		info, err := clients[c].PutMatrix(ctx, base)
		if err != nil {
			cleanup()
			return nil, err
		}
		bases[c] = info.Fp
		baseHat, err := referenceSketch(base, serveD, ref)
		if err != nil {
			cleanup()
			return nil, err
		}
		for k := 0; k < serveDeltas; k++ {
			delta := sparse.RandomUniform(serveM, serveN, 0.0002, cfg.seed*1000+950+int64(c*serveDeltas+k))
			sum, err := sparse.Add(base, delta)
			if err != nil {
				cleanup()
				return nil, err
			}
			next, err := advance(baseHat, delta, serveD, ref)
			if err != nil {
				cleanup()
				return nil, err
			}
			deltas[c] = append(deltas[c], delta)
			patched[c] = append(patched[c], sum.Fingerprint())
			want = append(want, []uint64{digest(values(next))})
		}
	}
	keyOf := func(c int, op serveOp) int {
		switch op.class {
		case classInline:
			return op.k
		case classByref:
			return serveInline + op.k
		default:
			return serveInline + serveByref + c*serveDeltas + op.k
		}
	}

	do := func(ctx context.Context, c int, op serveOp) (answer, error) {
		var ahat *dense.Matrix
		var err error
		switch op.class {
		case classInline:
			ahat, _, err = clients[c].Sketch(ctx, inline[op.k], serveD, opts)
		case classByref:
			ahat, _, err = clients[c].SketchRef(ctx, byref[op.k], serveD, opts)
		default:
			info, perr := clients[c].PatchMatrix(ctx, bases[c], deltas[c][op.k])
			if perr != nil {
				return answer{class: op.class}, perr
			}
			if info.Fp != patched[c][op.k] {
				return answer{class: op.class}, fmt.Errorf("patch %d/%d: fingerprint %v, want %v", c, op.k, info.Fp, patched[c][op.k])
			}
			ahat, _, err = clients[c].SketchRef(ctx, info.Fp, serveD, opts)
		}
		if err != nil {
			return answer{class: op.class}, err
		}
		return answer{class: op.class, key: keyOf(c, op), data: [][]float64{values(ahat)}}, nil
	}
	check := checkDigests("serve request", want)

	// Warm-up: every inline matrix, every by-ref matrix and each caller's
	// base once (which puts Â(base) in the sketch cache, so every later
	// patch advances it incrementally), then every patch.
	for c := 0; c < callers; c++ {
		var ops []serveOp
		for k := c; k < serveInline; k += callers {
			ops = append(ops, serveOp{classInline, k})
		}
		for k := range byref {
			ops = append(ops, serveOp{classByref, k})
		}
		if _, _, err := clients[c].SketchRef(ctx, bases[c], serveD, opts); err != nil {
			cleanup()
			return nil, err
		}
		for k := 0; k < serveDeltas; k++ {
			ops = append(ops, serveOp{classPatch, k})
		}
		for _, op := range ops {
			a, err := do(ctx, c, op)
			if err == nil {
				err = check(a)
			}
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("serve warm-up: %w", err)
			}
		}
	}

	// Per-caller seeded sequences: a Zipf rank over a seeded permutation
	// of the inline set, so popularity is not tied to generation order.
	type seq struct {
		r    *rand.Rand
		zipf *rand.Zipf
		perm []int
	}
	seqs := make([]seq, callers)
	for c := range seqs {
		r := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
		seqs[c] = seq{r: r, zipf: rand.NewZipf(r, 1.1, 1, serveInline-1), perm: r.Perm(serveInline)}
	}
	type callerOp struct {
		c  int
		op serveOp
	}
	inst := &instance{
		callers: callers,
		classes: []string{"inline", "byref", "patch"},
		prepare: func(c int) any {
			s := seqs[c]
			u := s.r.Float64()
			switch {
			case u < serveByrefShare:
				return callerOp{c, serveOp{classByref, s.r.Intn(serveByref)}}
			case u < serveByrefShare+servePatchShare:
				return callerOp{c, serveOp{classPatch, s.r.Intn(serveDeltas)}}
			default:
				return callerOp{c, serveOp{classInline, s.perm[s.zipf.Uint64()]}}
			}
		},
		do: func(ctx context.Context, op any) (answer, error) {
			o := op.(callerOp)
			return do(ctx, o.c, o.op)
		},
		check: check,
		close: cleanup,
	}
	if err := warmUp(inst, serveWarmOps); err != nil {
		cleanup()
		return nil, err
	}
	if cfg.traced {
		var before map[string]float64
		inst.mark = func() {
			before = scrape(n.svc.Registry())
			rt.reset()
			n.spans.reset()
		}
		inst.layers = func(run *runResult) map[string]float64 {
			return serveLayers(delta{before, scrape(n.svc.Registry())}, run, rt, n.spans)
		}
	}
	return inst, nil
}

// advance is the service's documented PATCH composition, Â + S·ΔA with
// S·ΔA from a plan over ΔA under the same options, adding only nonzero
// increments.
func advance(ahat *dense.Matrix, delta *sparse.CSC, d int, opts core.Options) (*dense.Matrix, error) {
	inc, err := referenceSketch(delta, d, opts)
	if err != nil {
		return nil, err
	}
	next := ahat.Clone()
	for j := 0; j < next.Cols; j++ {
		dst, src := next.Col(j), inc.Col(j)
		for i, v := range src {
			if v != 0 {
				dst[i] += v
			}
		}
	}
	return next, nil
}

func serveLayers(d delta, run *runResult, rt *spanSum, sp *serverSpans) map[string]float64 {
	out := map[string]float64{}
	ops := float64(max(run.attempted, 1))
	caller := run.callerTime().Seconds()
	decode := d.get("sketchsp_http_decode_seconds_sum")
	execute := d.get("sketchsp_http_execute_seconds_sum")
	encode := d.get("sketchsp_http_encode_seconds_sum")
	out["server.decode_ms"] = d.meanMS("sketchsp_http_decode_seconds")
	out["server.execute_ms"] = d.meanMS("sketchsp_http_execute_seconds")
	out["server.encode_ms"] = d.meanMS("sketchsp_http_encode_seconds")
	out["client.transport_ms"] = ratio((caller-decode-execute-encode)*1e3, float64(rt.count()))
	for c, name := range run.classes {
		out["client."+name+"_p50_ms"] = ms(quantile(run.latencies(c), 0.5))
	}
	out["wire.bytes_in_per_op"] = d.get("sketchsp_http_request_bytes_total") / ops
	out["wire.bytes_out_per_op"] = d.get("sketchsp_http_response_bytes_total") / ops
	out["core.execute_ms"] = d.meanMS("sketchsp_plan_execute_seconds")
	out["service.shed"] = d.get("sketchsp_service_shed_total")
	hits, misses := d.get("sketchsp_service_cache_hits_total"), d.get("sketchsp_service_cache_misses_total")
	out["service.plan_hit_ratio"] = ratio(hits, hits+misses)
	out["service.plan_builds_per_op"] = d.get("sketchsp_service_plan_builds_total") / ops
	out["service.evictions"] = d.get("sketchsp_service_cache_evictions_total")
	sh, sm := d.get("sketchsp_ref_sketch_hits_total"), d.get("sketchsp_ref_sketch_misses_total")
	out["service.sketch_cache_hit_ratio"] = ratio(sh, sh+sm)
	th, tm := d.get("sketchsp_store_hits_total"), d.get("sketchsp_store_misses_total")
	out["store.hit_ratio"] = ratio(th, th+tm)
	out["store.evictions"] = d.get("sketchsp_store_evictions_total")
	out["store.bytes"] = d.after["sketchsp_store_bytes"]
	httpShares(out, caller, rt, sp, decode, encode)
	out["share.kernels+rng+core"] = ratio(d.get("sketchsp_plan_execute_seconds_sum"), caller)
	return out
}

// httpShares splits the caller time of an HTTP workload into the client
// (outside the HTTP exchange), the transport (exchange outside the
// handler), the server's decode and encode stages and the backend calls;
// what the handler spent outside those stages is unattributed.
func httpShares(out map[string]float64, caller float64, rt *spanSum, sp *serverSpans, decode, encode float64) {
	handler := sp.handler.total().Seconds()
	backend := sp.backend.total().Seconds()
	out["share.client"] = ratio(caller-rt.total().Seconds(), caller)
	out["share.transport"] = ratio(rt.total().Seconds()-handler, caller)
	out["share.server"] = ratio(decode+encode, caller)
	out["share.backend"] = ratio(backend, caller)
	out["trace.unattributed_frac"] = ratio(handler-decode-encode-backend, caller)
}
