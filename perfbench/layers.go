package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerMetric is one per-layer metric of the traced run and the workload
// that measures it. BENCHMARK.json lists the same names.
type layerMetric struct {
	name, unit, owner string
}

// The process.* and trace.* metrics have no owner: they describe the
// workload the traced run was asked for.
var perLayer = []layerMetric{
	{"kernels.gflops.dense.alg3", "GFLOP/s", "kernel"},
	{"kernels.gflops.dense.alg4", "GFLOP/s", "kernel"},
	{"kernels.gflops.pm1.alg3", "GFLOP/s", "kernel"},
	{"kernels.gflops.pm1.alg4", "GFLOP/s", "kernel"},
	{"kernels.gflops.sjlt.alg3", "GFLOP/s", "kernel"},
	{"kernels.gflops.sjlt.alg4", "GFLOP/s", "kernel"},
	{"kernels.roofline_frac", "ratio", "kernel"},
	{"rng.sample_frac", "ratio", "kernel"},
	{"rng.samples_per_op", "count", "kernel"},
	{"core.imbalance", "ratio", "kernel"},
	{"core.steals_per_op", "count", "kernel"},
	{"core.plan_ms", "ms", "kernel"},
	{"core.convert_ms", "ms", "kernel"},
	{"core.execute_ms", "ms", "serve"},
	{"server.decode_ms", "ms", "serve"},
	{"server.execute_ms", "ms", "serve"},
	{"server.encode_ms", "ms", "serve"},
	{"client.transport_ms", "ms", "serve"},
	{"client.inline_p50_ms", "ms", "serve"},
	{"client.byref_p50_ms", "ms", "serve"},
	{"client.patch_p50_ms", "ms", "serve"},
	{"wire.bytes_in_per_op", "bytes", "serve"},
	{"wire.bytes_out_per_op", "bytes", "serve"},
	{"service.queue_wait_ms", "ms", "shard"},
	{"service.shed", "count", "serve"},
	{"service.plan_hit_ratio", "ratio", "serve"},
	{"service.plan_builds_per_op", "count", "serve"},
	{"service.evictions", "count", "serve"},
	{"service.sketch_cache_hit_ratio", "ratio", "serve"},
	{"store.hit_ratio", "ratio", "serve"},
	{"store.evictions", "count", "serve"},
	{"store.bytes", "bytes", "serve"},
	{"shard.fanout_ms", "ms", "shard"},
	{"shard.merge_ms", "ms", "shard"},
	{"shard.peer_requests_per_op", "count", "shard"},
	{"shard.batch_size_mean", "count", "shard"},
	{"shard.failovers", "count", "shard"},
	{"shard.hedges", "count", "shard"},
	{"shard.worker_plan_hit_ratio", "ratio", "shard"},
	{"shard.peer_skew", "ratio", "shard"},
	{"solver.iters_per_op", "count", "solve"},
	{"solver.lsqr_ms", "ms", "solve"},
	{"solver.residual_max", "ratio", "solve"},
	{"solver.precond_build_ms", "ms", "solve"},
	{"solver.precond_hit_ratio", "ratio", "solve"},
	{"jobs.async_overhead_ms", "ms", "solve"},
	{"process.alloc_mb_per_op", "MB", ""},
	{"process.gc_cpu_frac", "ratio", ""},
	{"trace.overhead_frac", "ratio", ""},
	{"trace.unattributed_frac", "ratio", ""},
}

// printShares records a traced workload's layer shares of caller time and
// the host figures it measured, and flags the bounds the benchmark's
// design rests on: on kernel the kernels, rng and core layers take at
// least 80% of caller time, on serve at most a third, and no workload
// leaves more than a tenth of caller time unattributed.
func printShares(out io.Writer, name string, lm map[string]float64) {
	var keys []string
	for k := range lm {
		if strings.HasPrefix(k, "share.") || strings.HasPrefix(k, "host.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%.4g", k, lm[k])
	}
	fmt.Fprintf(out, "# %s layers:%s trace.unattributed_frac=%.4g\n", name, sb.String(), lm["trace.unattributed_frac"])
	core := lm["share.kernels+rng+core"]
	switch {
	case name == "kernel" && core < 0.80:
		fmt.Fprintf(out, "# %s: WARNING kernels+rng+core share %.3f is below 0.80\n", name, core)
	case name == "serve" && core > 1.0/3:
		fmt.Fprintf(out, "# %s: WARNING kernels+rng+core share %.3f is above 1/3\n", name, core)
	}
	if u := lm["trace.unattributed_frac"]; u > 0.10 {
		fmt.Fprintf(out, "# %s: WARNING unattributed share %.3f is above 0.10\n", name, u)
	}
}
