# Build/test entry points for the sketchsp reproduction. `make ci` is the
# PR gate: vet and the gofmt check, the tier-1 suite, and a race-detector
# pass over the packages that exercise the persistent worker pool.

GO ?= go
GOFMT ?= gofmt

.PHONY: ci build test test-purego vet race bench bench-smoke bench-ledger fuzz-smoke test-shard-faults

ci: vet test test-purego race test-shard-faults fuzz-smoke bench-smoke

build:
	$(GO) build ./...

# -shuffle=on randomises test (and subtest-parent) execution order every
# run, so inter-test state leaks can't hide behind a lucky fixed order.
test: build
	$(GO) test -shuffle=on ./...

# The packages with an AVX-512 backend, built with the purego tag: the Go
# reference code runs even on an AVX-512 host, so both backends stay
# tested (the tests log which one ran).
test-purego:
	$(GO) test -tags purego ./internal/rng/ ./internal/kernels/ ./internal/core/

# vet also fails when gofmt would reformat any Go file of the repository
# (the perfbench module included) and lists the files.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l *.go cmd examples internal perfbench); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# The planner/executor worker pool and the solvers that reuse plans are the
# concurrency-sensitive surface; race-check them on every PR. The service
# suite (plan cache, single-flight, eviction/cancellation hammers) runs
# twice so a lucky interleaving on the first pass doesn't mask a race. The
# obs registry's scrape-while-incrementing suite and the server's /metrics
# e2e reconcile ride the same gate: metric counters sit on every hot path.
race:
	$(GO) test -race ./internal/core/... ./internal/solver/...
	$(GO) test -race -count=2 ./internal/service/...
	$(GO) test -race ./internal/obs/... ./internal/server/...
	$(GO) test -race ./internal/shard/...
	$(GO) test -race -count=2 ./internal/store/...
	$(GO) test -race -count=2 ./internal/jobs/...

# The coordinator fault suite: hedging (fires/wins/loser-cancelled/
# duplicate-rejected), dynamic membership mid-fan-out, churn under load,
# ring movement properties, and batch fan-out — twice under the race
# detector, because every one of these paths is timer-vs-response
# concurrency and a lucky first interleaving must not green the gate.
test-shard-faults:
	$(GO) test -race -count=2 -run 'TestHedge|TestDuplicate|TestMembership|TestWatchPeers|TestBatch|TestRing' ./internal/shard/

# Short coverage-guided runs of the wire fuzzer (v4 frames: solve and
# job-status messages included) and of the POST /v1/sketch handler fuzzer;
# the committed corpus and seeds always replay, this adds a few seconds of
# mutation on top as a PR smoke. The handler's new inputs are minimized for
# at most 100 runs each: at the default 60 s budget the 5 s smoke would
# spend its time minimizing instead of mutating.
fuzz-smoke:
	$(GO) test ./internal/wire -run FuzzWireRoundtrip -fuzz FuzzWireRoundtrip -fuzztime 5s
	$(GO) test ./internal/server -run FuzzSketchHandler -fuzz FuzzSketchHandler -fuzztime 5s -fuzzminimizetime 100x

# One iteration of the paper-table benchmarks that drive the pre-generated
# (Figure 4 ablation) and timed (Table III/V breakdown) kernel paths: their
# only callers outside unit tests, which `go test ./...` compiles but never
# runs.
bench-smoke:
	$(GO) test -run - -bench 'BenchmarkAblationPregen|BenchmarkTable3SampleBreakdown|BenchmarkTable5SampleBreakdown' -benchtime 1x .

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Appends WORKLOAD's perfbench medians to the append-only BENCH.json
# ledger: RUNS untraced 20 s runs (the benchmark's own length) of this
# checkout, summarized by cmd/benchledger into one {rev, host, workload,
# metric, median, iqr, n} record per end-to-end metric, rev being HEAD's
# short hash. It refuses to start on a tree with uncommitted changes to
# tracked files other than the ledger. The raw runs stay in .bench_build.
WORKLOAD ?= serve
RUNS ?= 5

bench-ledger:
	@git diff --quiet HEAD -- . ':!BENCH.json' || { echo "bench-ledger: commit the working tree's changes first"; exit 1; }
	@mkdir -p .bench_build
	for i in $$(seq $(RUNS)); do bash perfbench/run.sh --workload $(WORKLOAD) --seed 1 --seconds 20 --trace 0; done > .bench_build/ledger-$(WORKLOAD).txt
	$(GO) run ./cmd/benchledger -workload $(WORKLOAD) .bench_build/ledger-$(WORKLOAD).txt
