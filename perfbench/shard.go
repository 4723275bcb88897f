package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/obs"
	"sketchsp/internal/rng"
	"sketchsp/internal/shard"
	"sketchsp/internal/sparse"
)

// The shard workload: ≤2 callers send Coordinator.Sketch to an in-process
// coordinator over two in-process loopback workers, with sketchd defaults
// (hedging off, batch frames on). Four shards per request put two shards
// in each batch frame. It is the only workload that runs ring routing,
// batch fan-out and the coverage-checked merge. Its shardMats matrices
// have one shape, and their 16 shard plans fit in the workers' default
// plan caches, so after warm-up every shard hits its worker's cache
// (plan-cache affinity).
//
// A request's latency depends on how its four shards fall on the ring: a
// 2+2 split runs on both workers, a 3+1 or 4+0 split waits on one. With
// seed-drawn matrices and ephemeral ports the mix of splits, and with it
// the request classes p50 and p95 fall in, would change from run to run.
// So the matrices are fixed (shardMatrixSeed), the workers have stable
// names, and --seed draws each caller's request sequence.
const (
	shardMats   = 4
	shardShards = 4
	shardM      = 8000
	shardN      = 800
	shardD      = 64

	shardWarmOps = 40 // per caller

	shardMatrixSeed = 7001
)

func setupShard(cfg setupConfig) (*instance, error) {
	callers := min(2, runtime.NumCPU())
	var workers []*node
	var closeIdle func()
	var coord *shard.Coordinator
	cleanup := func() {
		if coord != nil {
			coord.Close()
		}
		for _, w := range workers {
			w.close()
		}
		if closeIdle != nil {
			closeIdle()
		}
	}
	for k := 0; k < 2; k++ {
		w, err := startNode(cfg.traced)
		if err != nil {
			cleanup()
			return nil, err
		}
		workers = append(workers, w)
	}
	var rt *spanSum
	if cfg.traced {
		rt = &spanSum{}
	}
	// The ring hashes peer names, so the workers get stable names that the
	// client dials at their ephemeral ports: shard placement then does not
	// change from run to run with the ports the system hands out.
	peers := make([]string, len(workers))
	dial := map[string]string{}
	for k, w := range workers {
		host := fmt.Sprintf("worker-%d.perfbench.invalid:80", k)
		peers[k] = "http://" + host
		dial[host] = strings.TrimPrefix(w.url, "http://")
	}
	httpc, ci := httpClient(rt, dial)
	closeIdle = ci
	reg := obs.NewRegistry()
	var err error
	coord, err = shard.New(shard.Config{
		Peers:   peers,
		Shards:  shardShards,
		Client:  client.Config{HTTPClient: httpc},
		Metrics: reg,
	})
	if err != nil {
		cleanup()
		return nil, err
	}

	opts := core.Options{Dist: rng.Uniform11, Seed: uint64(cfg.seed), Workers: 1, Timed: cfg.traced}
	ref := opts
	ref.Timed = false
	mats := make([]*sparse.CSC, shardMats)
	want := make([][]uint64, shardMats)
	for k := range mats {
		mats[k] = sparse.RandomUniform(shardM, shardN, 0.003, shardMatrixSeed+int64(k))
		rd, err := referenceDigest(mats[k], shardD, ref)
		if err != nil {
			cleanup()
			return nil, err
		}
		want[k] = []uint64{rd}
	}
	do := func(ctx context.Context, k int) (answer, error) {
		ahat, _, err := coord.Sketch(ctx, mats[k], shardD, opts)
		if err != nil {
			return answer{}, err
		}
		return answer{key: k, data: [][]float64{values(ahat)}}, nil
	}
	check := checkDigests("shard request", want)
	ctx := context.Background()
	for k := range mats {
		a, err := do(ctx, k)
		if err == nil {
			err = check(a)
		}
		if err != nil {
			cleanup()
			return nil, err
		}
	}

	rs := make([]*rand.Rand, callers)
	for c := range rs {
		rs[c] = rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
	}
	inst := &instance{
		callers: callers,
		classes: []string{"sketch"},
		prepare: func(c int) any { return rs[c].Intn(shardMats) },
		do:      func(ctx context.Context, op any) (answer, error) { return do(ctx, op.(int)) },
		check:   check,
		close:   cleanup,
	}
	if err := warmUp(inst, shardWarmOps); err != nil {
		cleanup()
		return nil, err
	}
	if cfg.traced {
		var before map[string]float64
		var wbefore []map[string]float64
		inst.mark = func() {
			before = scrape(reg)
			wbefore = wbefore[:0]
			for _, w := range workers {
				wbefore = append(wbefore, scrape(w.svc.Registry()))
				w.spans.reset()
			}
			rt.reset()
		}
		inst.layers = func(run *runResult) map[string]float64 {
			var wd []delta
			for k, w := range workers {
				wd = append(wd, delta{wbefore[k], scrape(w.svc.Registry())})
			}
			return shardLayers(delta{before, scrape(reg)}, wd, run)
		}
	}
	return inst, nil
}

func shardLayers(d delta, workers []delta, run *runResult) map[string]float64 {
	out := map[string]float64{}
	ops := float64(max(run.attempted, 1))
	caller := run.callerTime().Seconds()
	out["shard.fanout_ms"] = d.meanMS("sketchsp_shard_fanout_seconds")
	out["shard.merge_ms"] = d.meanMS("sketchsp_shard_merge_seconds")
	out["shard.peer_requests_per_op"] = d.sumPrefix("sketchsp_shard_peer_requests_total") / ops
	out["shard.batch_size_mean"] = ratio(d.get("sketchsp_shard_batch_size_sum"), d.get("sketchsp_shard_batch_size_count"))
	out["shard.failovers"] = d.get("sketchsp_shard_failovers_total")
	out["shard.hedges"] = d.get("sketchsp_shard_hedges_total")
	var hits, lookups, execute, queueWait, maxPeer, sumPeer float64
	for _, w := range workers {
		h, m := w.get("sketchsp_service_cache_hits_total"), w.get("sketchsp_service_cache_misses_total")
		hits += h
		lookups += h + m
		execute += w.get("sketchsp_plan_execute_seconds_sum")
		queueWait += w.get("sketchsp_service_queue_wait_seconds_sum")
		rpcs := w.get("sketchsp_http_decode_seconds_count")
		maxPeer = max(maxPeer, rpcs)
		sumPeer += rpcs
	}
	out["shard.worker_plan_hit_ratio"] = ratio(hits, lookups)
	// Each batch frame takes one admission slot per plan group, so two
	// callers' frames contend for the workers' GOMAXPROCS slots; the serve
	// server, with two callers and no fan-out, never queues.
	out["service.queue_wait_ms"] = queueWait * 1e3 / ops
	out["shard.peer_skew"] = ratio(maxPeer, sumPeer/float64(len(workers)))
	fanout, merge := d.get("sketchsp_shard_fanout_seconds_sum"), d.get("sketchsp_shard_merge_seconds_sum")
	out["share.shard"] = ratio(fanout+merge, caller)
	out["share.kernels+rng+core"] = ratio(execute, caller)
	out["trace.unattributed_frac"] = 1 - ratio(fanout+merge, caller)
	return out
}
