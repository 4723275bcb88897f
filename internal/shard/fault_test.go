package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// The fault-injection suite: scripted delays, hangs and wire corruption
// driven through real workers, pinning the hedging, membership and
// batching behaviours the coordinator promises. Every successful sketch is
// checked bit-identical against the direct single-process plan — faults
// may cost latency and duplicate work, never bits.

func counterValue(t *testing.T, c *Coordinator, name string) float64 {
	t.Helper()
	fs := strings.Fields(metricLine(t, scrape(t, c), name))
	v, err := strconv.ParseFloat(fs[len(fs)-1], 64)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	return v
}

// primaryOf returns the ring-order candidate URLs for a's single-shard
// key, resolved against the coordinator's current membership.
func candidateURLs(c *Coordinator, a *sparse.CSC) []string {
	shards := Split(a, 1)
	cands := c.mem.Load().candidates(shards[0].A.Fingerprint().Hash, 0)
	urls := make([]string, len(cands))
	for i, p := range cands {
		urls[i] = p.name
	}
	return urls
}

// TestHedgeFiresAndWins scripts the primary worker for a one-shard sketch
// to stall far past the hedge threshold: the hedge must fire, the backup
// must win, and the answer must be bit-identical to the direct plan in far
// less time than the straggler would have taken.
func TestHedgeFiresAndWins(t *testing.T) {
	ws, urls := startFlakyWorkers(t, 2, nil)
	c, err := New(Config{
		Peers:         urls,
		Shards:        1,
		HedgeQuantile: 0.9,
		HedgeMaxDelay: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sparse.PowerLaw(250, 40, 1400, 1.3, 31)
	opts := core.Options{Dist: rng.Rademacher, Seed: 9, Workers: 1}
	cands := candidateURLs(c, a)
	primary := workerByURL(t, ws, urls, cands[0])
	primary.flaky.SetScript(func(int64, *sparse.CSC, int) Fault {
		return Fault{Delay: 2 * time.Second}
	})

	start := time.Now()
	got, _, err := c.Sketch(context.Background(), a, 16, opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, directSketch(t, a, 16, opts))
	if elapsed > time.Second {
		t.Fatalf("hedged sketch took %v — the straggler was waited out, not hedged", elapsed)
	}
	if v := counterValue(t, c, "sketchsp_shard_hedges_total"); v < 1 {
		t.Fatalf("hedges_total = %v, want >= 1", v)
	}
	if v := counterValue(t, c, "sketchsp_shard_hedge_wins_total"); v < 1 {
		t.Fatalf("hedge_wins_total = %v, want >= 1", v)
	}
}

// TestHedgeLoserCancelled hangs the primary until its context dies: after
// the hedged answer wins, the losing attempt must be torn down (observed
// as a cancellation release in the primary's backend), not left running.
func TestHedgeLoserCancelled(t *testing.T) {
	ws, urls := startFlakyWorkers(t, 2, nil)
	c, err := New(Config{
		Peers:         urls,
		Shards:        1,
		HedgeQuantile: 0.9,
		HedgeMaxDelay: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sparse.RandomUniform(200, 36, 0.08, 41)
	opts := core.Options{Dist: rng.Gaussian, Seed: 3, Workers: 1}
	primary := workerByURL(t, ws, urls, candidateURLs(c, a)[0])
	primary.flaky.SetScript(func(int64, *sparse.CSC, int) Fault {
		return Fault{Hang: true}
	})

	got, _, err := c.Sketch(context.Background(), a, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, directSketch(t, a, 12, opts))

	deadline := time.Now().Add(5 * time.Second)
	for primary.flaky.Canceled() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hanging loser attempt was never released by cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDuplicateAnswerRejected corrupts every worker's shard batch items to
// echo the wrong j0 — the shape a duplicated or misrouted answer would
// take. The coordinator must fail the request at the placement check
// rather than merge the partial into the wrong columns.
func TestDuplicateAnswerRejected(t *testing.T) {
	rewriteJ0 := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if typ, payload, _, err := wire.SplitFrame(body, 1<<30); err == nil && typ == wire.MsgShardBatchResponse {
				if rs, derr := wire.DecodeShardBatchResponse(payload); derr == nil {
					for i := range rs {
						if rs[i].Status == wire.StatusOK {
							rs[i].J0 += 3
						}
					}
					body = frameOf(wire.MsgShardBatchResponse, wire.AppendShardBatchResponse(nil, rs))
				}
			}
			for k, vs := range rec.Header() {
				if k == "Content-Length" {
					continue
				}
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	_, urls := startWorkers(t, 2, rewriteJ0)
	c, err := New(Config{Peers: urls, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sparse.RandomUniform(150, 30, 0.1, 17)
	_, _, err = c.Sketch(context.Background(), a, 8, core.Options{Dist: rng.Rademacher, Seed: 2, Workers: 1})
	if err == nil {
		t.Fatal("misplaced partial was merged — duplicate rejection is broken")
	}
	if !strings.Contains(err.Error(), "echoes j0") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestMembershipChangeMidFanout joins one peer and removes another while a
// fan-out is in flight: the in-flight request completes against the
// snapshot it started with (bit-identical, no error), and the next request
// routes on the new membership.
func TestMembershipChangeMidFanout(t *testing.T) {
	slow := func(i int) faultScript {
		return func(int64, *sparse.CSC, int) Fault { return Fault{Delay: 30 * time.Millisecond} }
	}
	_, urls := startFlakyWorkers(t, 3, slow)
	c, err := New(Config{Peers: urls[:2], Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sparse.PowerLaw(300, 48, 1600, 1.3, 23)
	opts := core.Options{Dist: rng.Uniform11, Seed: 13, Workers: 1}
	want := directSketch(t, a, 10, opts)

	type outcome struct {
		got *dense.Matrix
		err error
	}
	inflight := make(chan outcome, 1)
	go func() {
		got, _, err := c.Sketch(context.Background(), a, 10, opts)
		inflight <- outcome{got, err}
	}()

	time.Sleep(10 * time.Millisecond)
	if err := c.AddPeer(urls[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.RemovePeer(urls[1]); err != nil {
		t.Fatal(err)
	}
	o := <-inflight
	if o.err != nil {
		t.Fatalf("in-flight request lost to membership change: %v", o.err)
	}
	assertBitIdentical(t, o.got, want)

	// New membership (w0, w2) serves the next request, still bit-identical.
	got2, _, err := c.Sketch(context.Background(), a, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got2, want)
	if v := counterValue(t, c, "sketchsp_shard_peer_changes_total"); v != 2 {
		t.Fatalf("peer_changes_total = %v, want 2", v)
	}
	if peers := c.Peers(); len(peers) != 2 || peers[0] == urls[1] || peers[1] == urls[1] {
		t.Fatalf("membership after change: %v", peers)
	}
}

// TestMembershipChurnUnderLoad hammers joins and leaves concurrently with
// a sketch load; every request must succeed bit-identically. Run under
// -race in CI, this pins the snapshot discipline.
func TestMembershipChurnUnderLoad(t *testing.T) {
	_, urls := startFlakyWorkers(t, 3, nil)
	c, err := New(Config{Peers: urls[:2], Shards: 4, HedgeQuantile: 0.9, HedgeMaxDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sparse.RandomUniform(120, 24, 0.12, 5)
	opts := core.Options{Dist: rng.Rademacher, Seed: 77, Workers: 1}
	want := directSketch(t, a, 6, opts)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.AddPeer(urls[2])
			time.Sleep(2 * time.Millisecond)
			_ = c.RemovePeer(urls[2])
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var load sync.WaitGroup
	errs := make(chan error, 8*5)
	for g := 0; g < 8; g++ {
		load.Add(1)
		go func() {
			defer load.Done()
			for i := 0; i < 5; i++ {
				got, _, err := c.Sketch(context.Background(), a, 6, opts)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < want.Cols; j++ {
					for r := 0; r < want.Rows; r++ {
						if got.At(r, j) != want.At(r, j) {
							errs <- &ShardError{J0: j, J1: j, Peer: "bits", Err: context.Canceled}
							return
						}
					}
				}
			}
		}()
	}
	load.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed during churn: %v", err)
	}
}

// TestWatchPeersFile drives membership from a polled peers file, including
// the skip rules for empty and unreadable content.
func TestWatchPeersFile(t *testing.T) {
	_, urls := startFlakyWorkers(t, 3, nil)
	c, err := New(Config{Peers: urls[:2]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	path := filepath.Join(t.TempDir(), "peers")
	stop := c.WatchPeersFile(path, 5*time.Millisecond)
	defer stop()

	// Missing file: skipped, membership unchanged.
	time.Sleep(20 * time.Millisecond)
	if len(c.Peers()) != 2 {
		t.Fatalf("peers = %v before any file write", c.Peers())
	}

	content := urls[0] + "\n" + urls[1] + ", " + urls[2] + "  # trailing comment\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Peers()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never applied 3-peer file; peers = %v", c.Peers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An empty file (truncated mid-write) must not empty the cluster.
	if err := os.WriteFile(path, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if len(c.Peers()) != 3 {
		t.Fatalf("empty peers file shrank membership to %v", c.Peers())
	}
}

// TestBatchFanout pins the per-peer batch path: every primary attempt
// rides a batch frame, one frame per peer with shards, and the merged
// sketch stays bit-identical.
func TestBatchFanout(t *testing.T) {
	a := sparse.PowerLaw(320, 64, 2000, 1.3, 51)
	opts := core.Options{Dist: rng.Gaussian, Seed: 19, Workers: 1}
	want := directSketch(t, a, 14, opts)

	_, urls := startWorkers(t, 2, nil)
	c, err := New(Config{Peers: urls, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := c.Sketch(context.Background(), a, 14, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
	frames := counterValue(t, c, "sketchsp_shard_batch_size_count")
	if frames < 1 || frames > 2 {
		t.Fatalf("batch_size_count = %v, want one frame per peer (1 or 2) for 8 shards on 2 peers", frames)
	}
	if v := counterValue(t, c, "sketchsp_shard_batch_size_sum"); v != 8 {
		t.Fatalf("batch_size_sum = %v, want 8 (every shard rides a frame)", v)
	}
	if v := counterValue(t, c, "sketchsp_shard_subrequests_total"); v != 8 {
		t.Fatalf("subrequests_total = %v, want 8 (batch items count individually)", v)
	}
	var peerFrames float64
	for _, u := range urls {
		peerFrames += counterValue(t, c, `sketchsp_shard_peer_requests_total{peer="`+u+`"}`)
	}
	if peerFrames != frames {
		t.Fatalf("peer_requests_total sums to %v, want %v (every frame is a batch frame)", peerFrames, frames)
	}
}

// TestBatchRejectedFrameFailsFast has every worker answer the batch frame
// with a batch-level StatusMalformed. The request is at fault, not the
// peer, so the coordinator must fail fast with a typed *ShardError that
// unwraps to wire.ErrMalformed — no failover to another peer.
func TestBatchRejectedFrameFailsFast(t *testing.T) {
	rejectBatches := func(i int, h http.Handler) http.Handler {
		payload := wire.AppendShardBatchResponse(nil, []wire.ShardResponse{{
			Status: wire.StatusMalformed, Detail: "rejected shard batch",
		}})
		frame := frameOf(wire.MsgShardBatchResponse, payload)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if typ, _, _, err := wire.SplitFrame(body, 1<<30); err == nil && typ == wire.MsgShardBatchRequest {
				w.WriteHeader(http.StatusBadRequest)
				w.Write(frame)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
		})
	}
	_, urls := startWorkers(t, 2, rejectBatches)
	c, err := New(Config{Peers: urls, Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sparse.RandomUniform(260, 52, 0.07, 61)
	opts := core.Options{Dist: rng.Rademacher, Seed: 29, Workers: 1}
	_, _, err = c.Sketch(context.Background(), a, 10, opts)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("rejected batch frame: want *ShardError, got %v", err)
	}
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("rejected batch frame does not unwrap to ErrMalformed: %v", err)
	}
	if v := counterValue(t, c, "sketchsp_shard_failovers_total"); v != 0 {
		t.Fatalf("failovers_total = %v, want 0: a rejected frame must fail fast", v)
	}
}

// TestHedgeBufferLifetimes delays some calls on two workers well past the
// hedge delay and has the third fail one shard every time, while four
// callers sketch three same-shaped matrices. Every answer must be
// bit-identical to its direct plan: a pooled request frame, response body
// or partial recycled while a losing or failed attempt still reads or
// writes it would hand one request another's bits — or, under -race, trip
// the detector.
//
// Both kinds of fault are certain, whatever the timing. The failing shard
// is routed to the failing worker, its primary, on the first request for
// its matrix, before any failure can put that worker in cooldown; that
// worker delays nothing, and while the backups' latency windows are cold
// the hedge waits HedgeMaxDelay, so the failure arrives first and the
// shard fails over. A straggler waits three times HedgeMaxDelay, so its
// shard is always hedged.
func TestHedgeBufferLifetimes(t *testing.T) {
	ws, urls := startFlakyWorkers(t, 3, nil)
	const shards, hedgeMax = 4, 100 * time.Millisecond
	c, err := New(Config{
		Peers:         urls,
		Shards:        shards,
		HedgeQuantile: 0.9,
		HedgeMaxDelay: hedgeMax,
		PeerCooldown:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	opts := core.Options{Dist: rng.Gaussian, Seed: 21, Workers: 1}
	const d = 12
	mats := make([]*sparse.CSC, 3)
	want := make([]*dense.Matrix, len(mats))
	for k := range mats {
		mats[k] = sparse.RandomUniform(300, 60, 0.05, int64(40+k))
		want[k] = directSketch(t, mats[k], d, opts)
	}
	failing := Split(mats[0], shards)[0].A.Fingerprint().Hash
	primary := workerByURL(t, ws, urls, c.mem.Load().candidates(failing, 0)[0].name)
	for _, w := range ws {
		if w == primary {
			w.flaky.SetScript(func(_ int64, a *sparse.CSC, _ int) Fault {
				if a.Fingerprint().Hash == failing {
					return Fault{Err: errors.New("scripted worker failure")} // fails the shard over
				}
				return Fault{}
			})
			continue
		}
		w.flaky.SetScript(func(call int64, _ *sparse.CSC, _ int) Fault {
			if call%8 == 2 {
				return Fault{Delay: 3 * hedgeMax} // a straggler, hedged
			}
			return Fault{}
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(mats)
				got, _, err := c.Sketch(context.Background(), mats[k], d, opts)
				if err != nil {
					t.Errorf("caller %d, sketch %d: %v", g, i, err)
					return
				}
				for j := range want[k].Data {
					if math.Float64bits(got.Data[j]) != math.Float64bits(want[k].Data[j]) {
						t.Errorf("caller %d, sketch %d of matrix %d: Â differs from the direct plan at %d", g, i, k, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if v := counterValue(t, c, "sketchsp_shard_hedges_total"); v < 1 {
		t.Errorf("hedges_total = %v: no hedge fired", v)
	}
	if v := counterValue(t, c, "sketchsp_shard_failovers_total"); v < 1 {
		t.Errorf("failovers_total = %v: no failover happened", v)
	}
}
