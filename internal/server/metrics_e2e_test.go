package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/obs"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// postFrame POSTs one raw wire frame and returns the HTTP status — the
// client-side tally the metrics must reconcile with. No retries: every POST
// is exactly one response counted on exactly one code series.
func postFrame(t *testing.T, base string, frame []byte) int {
	t.Helper()
	res, err := http.Post(base+"/v1/sketch", "application/x-sketchsp-wire", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	return res.StatusCode
}

// TestE2EMetricsEndpointReconciles is the pinned contract of the tentpole:
// /metrics and /stats read the very same atomics, so after a mixed replay
// of successes, cache hits, malformed bodies, a method error and an
// overload shed — each tallied client-side from the HTTP status — the
// Prometheus exposition, the JSON snapshot and the client's own counts must
// agree EXACTLY, including bucket-by-bucket histogram geometry.
func TestE2EMetricsEndpointReconciles(t *testing.T) {
	base, svc, srv := startServer(t,
		service.Config{MaxInFlight: 1, MaxQueue: 1, Capacity: 8},
		Config{})

	codes := map[int]int{} // client-side tally: HTTP status -> responses seen
	a1 := sparse.RandomUniform(300, 60, 0.05, 1)
	a2 := sparse.PowerLaw(400, 50, 3000, 1.0, 2)
	opts := core.Options{Dist: rng.Rademacher, Seed: 7, Workers: 2}

	frame1, err := wire.AppendRequestFrame(nil, 24, opts, a1)
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := wire.AppendRequestFrame(nil, 16, opts, a2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // 1 miss + 4 hits
		codes[postFrame(t, base, frame1)]++
	}
	for i := 0; i < 2; i++ { // 1 miss + 1 hit
		codes[postFrame(t, base, frame2)]++
	}
	for i := 0; i < 3; i++ { // malformed: not a wire frame at all
		codes[postFrame(t, base, []byte("definitely not a frame"))]++
	}
	res, err := http.Get(base + "/v1/sketch") // method error
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	codes[res.StatusCode]++

	// Overload shed: a heavy in-process sketch owns the single admission
	// slot, a second waiter fills the queue, and the next HTTP request must
	// bounce with 429 from its one attempt.
	heavy := sparse.RandomUniform(2000, 200, 0.25, 17)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, _, err := svc.Sketch(context.Background(), heavy, 2000, core.Options{Workers: 1, Seed: 1}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, "blocker in flight", func() bool { return svc.Stats().InFlight >= 1 })
	go func() {
		defer wg.Done()
		if _, _, err := svc.Sketch(context.Background(), a1, 24, opts); err != nil {
			t.Errorf("queued waiter: %v", err)
		}
	}()
	waitFor(t, "waiter queued", func() bool { return svc.Stats().QueueDepth >= 1 })
	codes[postFrame(t, base, frame2)]++ // shed -> 429
	wg.Wait()                           // quiesce before scraping

	if codes[200] != 7 || codes[400] != 3 || codes[405] != 1 || codes[429] != 1 {
		t.Fatalf("client-side tallies drifted from the script: %v", codes)
	}

	// Scrape.
	mres, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	if ct := mres.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	mm, err := obs.ParseText(mres.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	sres, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(sres.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}

	metric := func(key string) float64 {
		t.Helper()
		v, ok := mm[key]
		if !ok {
			t.Fatalf("/metrics is missing %q", key)
		}
		return v
	}
	expectEq := func(key string, want int64) {
		t.Helper()
		if got := metric(key); got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
	}

	// Per-status response counters vs the client's own tally — every code
	// the endpoint can emit, including the zero ones.
	for _, code := range []int{200, 400, 405, 429, 499, 500, 503, 504} {
		expectEq(fmt.Sprintf(`sketchsp_http_responses_total{code="%d"}`, code), int64(codes[code]))
	}
	expectEq(`sketchsp_http_responses_total{code="other"}`, 0)

	// Transport counters: /metrics == /stats == script. Decoded sketch
	// requests = 7 successes + 1 shed (its frame decoded fine); the three
	// garbage bodies and the GET never reach the decoder's counter.
	expectEq("sketchsp_http_requests_total", 8)
	expectEq("sketchsp_http_requests_total", snap.Server.Requests)
	expectEq("sketchsp_http_bad_requests_total", 3)
	expectEq("sketchsp_http_bad_requests_total", snap.Server.BadRequests)
	expectEq("sketchsp_http_request_bytes_total", snap.Server.BytesIn)
	expectEq("sketchsp_http_response_bytes_total", snap.Server.BytesOut)
	if snap.Server.BytesIn == 0 || snap.Server.BytesOut == 0 {
		t.Errorf("byte counters did not move: %+v", snap.Server)
	}

	// Stage histograms: decode ran for all 11 POSTs, execute and encode
	// only for the 8 decodable requests (the shed one included — the
	// rejection happens inside the service call).
	expectEq("sketchsp_http_decode_seconds_count", 11)
	expectEq("sketchsp_http_execute_seconds_count", 8)
	expectEq("sketchsp_http_encode_seconds_count", 8)

	// Service families vs the JSON snapshot, field by field.
	svcStats := snap.Service
	expectEq("sketchsp_service_cache_hits_total", svcStats.Hits)
	expectEq("sketchsp_service_cache_misses_total", svcStats.Misses)
	expectEq("sketchsp_service_plan_builds_total", svcStats.Builds)
	expectEq("sketchsp_service_plan_build_errors_total", svcStats.BuildErrors)
	expectEq("sketchsp_service_cache_evictions_total", svcStats.Evictions)
	expectEq("sketchsp_service_shed_total", svcStats.Rejections)
	expectEq("sketchsp_service_canceled_total", svcStats.Cancels)
	expectEq("sketchsp_service_in_flight", svcStats.InFlight)
	expectEq("sketchsp_service_queue_depth", svcStats.QueueDepth)
	expectEq("sketchsp_service_cached_plans", int64(svcStats.CachedPlans))
	if svcStats.Rejections != 1 {
		t.Errorf("Rejections = %d, want exactly the one shed POST", svcStats.Rejections)
	}
	// In-process traffic (blocker + waiter) rode the same service; the
	// latency histogram observes exactly the successfully completed
	// requests.
	expectEq("sketchsp_service_request_seconds_count", svcStats.Requests)
	if svcStats.Requests != 9 { // 7 HTTP + blocker + waiter; the shed never completes
		t.Errorf("service Requests = %d, want 9", svcStats.Requests)
	}

	// Histogram geometry: the exposition's cumulative le-buckets must match
	// the /stats raw bucket array exactly, edge for edge.
	var cum int64
	for i := 0; i < service.HistBuckets-1; i++ {
		cum += svcStats.LatencyHist[i]
		le := strconv.FormatFloat(service.BucketCeiling(i).Seconds(), 'g', -1, 64)
		expectEq(`sketchsp_service_request_seconds_bucket{le="`+le+`"}`, cum)
	}
	cum += svcStats.LatencyHist[service.HistBuckets-1]
	expectEq(`sketchsp_service_request_seconds_bucket{le="+Inf"}`, cum)
	if cum != svcStats.Requests {
		t.Errorf("histogram total %d != Requests %d", cum, svcStats.Requests)
	}

	// Plan executes aggregate across cache entries must agree with the
	// per-entry view /stats serves.
	var executes int64
	for _, e := range svcStats.Entries {
		executes += e.Executes
	}
	expectEq("sketchsp_plan_executes_total", executes)

	// The server's registry is the service's (Config.Metrics defaulting):
	// one scrape covers the whole stack.
	if srv.cfg.Metrics != svc.Registry() {
		t.Error("server did not default its registry to the service's")
	}
}

// TestE2EPprofGate: /debug/pprof is absent by default and present behind
// Config.Pprof — profiling on a serving port is opt-in.
func TestE2EPprofGate(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	res, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: GET /debug/pprof/ = %d, want 404", res.StatusCode)
	}

	base2, _, _ := startServer(t, service.Config{}, Config{Pprof: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base2+"/debug/pprof/cmdline", nil)
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof on: GET /debug/pprof/cmdline = %d, %d bytes; want 200 with content", res2.StatusCode, len(body))
	}
}

// TestE2EResponseCodesHaveTheirOwnSeries: every status a handler writes
// lands on its own sketchsp_http_responses_total series — 201 for a created
// matrix, 202 for a solve queued as a job, 404 for an unknown fingerprint
// or job — and the "other" series stays at 0.
func TestE2EResponseCodesHaveTheirOwnSeries(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	send := func(method, path string, frame []byte, want int) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", method, path, res.StatusCode, want)
		}
	}
	a, b := solveE2E(5, 200, 10)
	put, err := wire.AppendMatrixPutFrame(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	send(http.MethodPut, "/v1/matrix", put, http.StatusCreated)
	ref, err := wire.AppendSketchRefFrame(nil, &wire.SketchRefRequest{D: 4, Fp: sparse.RandomUniform(30, 5, 0.2, 9).Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	send(http.MethodPost, "/v1/sketch", ref, http.StatusNotFound)
	solve, err := wire.AppendSolveRequestFrame(nil, &wire.SolveRequest{Method: wire.SolveSAPQR, Async: true, A: a, B: b, Opts: e2eSketchOpts()})
	if err != nil {
		t.Fatal(err)
	}
	send(http.MethodPost, "/v1/solve", solve, http.StatusAccepted)
	send(http.MethodGet, "/v1/jobs/no-such-job", nil, http.StatusNotFound)

	res, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	mm, err := obs.ParseText(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	for code, want := range map[string]float64{"201": 1, "202": 1, "404": 2, "other": 0} {
		key := `sketchsp_http_responses_total{code="` + code + `"}`
		if got, ok := mm[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
}
