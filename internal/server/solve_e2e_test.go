package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/jobs"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// The solve e2e suite pins the serving contract of DESIGN.md §13 over a
// real loopback connection: served answers are bit-identical to direct
// solver calls, the sync/async split is a transport detail the client
// hides, and the job lifecycle (progress, cancel, expiry, eviction race)
// behaves as the state machine promises.

// solveE2E builds a tall well-conditioned problem and the wire request +
// direct solver.Options that must describe the identical computation.
func solveE2E(seed int64, m, n int) (*sparse.CSC, []float64) {
	a := sparse.FixedRowNNZ(m, n, 6, seed)
	r := rand.New(rand.NewSource(seed + 1))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b := make([]float64, m)
	a.MulVec(x, b)
	for i := range b {
		b[i] += 1e-3 * r.NormFloat64()
	}
	return a, b
}

func e2eSketchOpts() core.Options {
	return core.Options{Seed: 7, Dist: rng.Uniform11, Workers: 1}
}

// longProblem is an inconsistent continuous-valued system sized so LSQR
// neither converges (Atol 1e-300 in the request) nor drives ‖Aᵀr‖ to an
// exact zero — the solve spins until MaxIters or a cancel arrives.
func longProblem(seed int64) (*sparse.CSC, []float64) {
	a := sparse.RandomUniform(20000, 2000, 0.005, seed)
	r := rand.New(rand.NewSource(seed + 1))
	b := make([]float64, a.M)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return a, b
}

func vecBits(t *testing.T, label string, x, y []float64) {
	t.Helper()
	if len(x) != len(y) {
		t.Fatalf("%s: length %d vs %d", label, len(x), len(y))
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			t.Fatalf("%s: bit mismatch at %d: %x vs %x", label, i, math.Float64bits(x[i]), math.Float64bits(y[i]))
		}
	}
}

// TestE2ESolveBitIdentity solves over the wire with every least-squares
// method and demands the exact bits of the corresponding direct call.
func TestE2ESolveBitIdentity(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})
	ctx := context.Background()

	tall, bTall := solveE2E(41, 400, 20)
	wideBase, _ := solveE2E(42, 200, 30)
	wide := wideBase.Transpose()
	r := rand.New(rand.NewSource(43))
	bWide := make([]float64, wide.M)
	for i := range bWide {
		bWide[i] = r.NormFloat64()
	}

	cases := []struct {
		method wire.SolveMethod
		a      *sparse.CSC
		b      []float64
	}{
		{wire.SolveSAPQR, tall, bTall},
		{wire.SolveSAPSVD, tall, bTall},
		{wire.SolveLSQRD, tall, bTall},
		{wire.SolveMinNorm, wide, bWide},
	}
	for _, tc := range cases {
		t.Run(tc.method.String(), func(t *testing.T) {
			resp, err := c.Solve(ctx, &wire.SolveRequest{
				Method: tc.method, A: tc.a, B: tc.b, Opts: e2eSketchOpts(),
			})
			if err != nil {
				t.Fatalf("served solve: %v", err)
			}
			want, info, err := solver.SolveContext(ctx, tc.method.SolverMethod(), tc.a, tc.b,
				solver.Options{Sketch: e2eSketchOpts()})
			if err != nil {
				t.Fatalf("direct solve: %v", err)
			}
			vecBits(t, "served vs direct x", resp.X, want)
			if !resp.Info.Converged || resp.Info.Iters != info.Iters {
				t.Fatalf("served info (converged=%v iters=%d) disagrees with direct (converged=%v iters=%d)",
					resp.Info.Converged, resp.Info.Iters, info.Converged, info.Iters)
			}
		})
	}
}

// TestE2ESolveRandSVD round-trips the factor response and pins it to the
// direct RandSVD bits.
func TestE2ESolveRandSVD(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})
	ctx := context.Background()
	a, _ := solveE2E(51, 300, 40)

	resp, err := c.Solve(ctx, &wire.SolveRequest{
		Method: wire.SolveRandSVD, A: a, Rank: 8, Oversample: 4, PowerIters: 1, Opts: e2eSketchOpts(),
	})
	if err != nil {
		t.Fatalf("served rsvd: %v", err)
	}
	want, err := solver.RandSVDContext(ctx, a, 8, 4, 1, e2eSketchOpts())
	if err != nil {
		t.Fatalf("direct rsvd: %v", err)
	}
	if resp.Factors == nil {
		t.Fatal("rsvd response has no factors")
	}
	if err := bitIdentical(resp.Factors.U, want.U); err != nil {
		t.Fatalf("U: %v", err)
	}
	if err := bitIdentical(resp.Factors.V, want.V); err != nil {
		t.Fatalf("V: %v", err)
	}
	vecBits(t, "sigma", resp.Factors.Sigma, want.Sigma)
}

// TestE2ESolveAsyncThreshold forces every solve through the job path with
// a 1-nnz sync threshold and checks all three async surfaces: the raw 202
// + Location handshake, the explicit SolveAsync/JobWait pair, and Solve's
// transparent polling — all returning the direct solver's exact bits.
func TestE2ESolveAsyncThreshold(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{SolveSyncNNZ: 1})
	c := client.New(base, client.Config{})
	ctx := context.Background()
	a, b := solveE2E(61, 400, 20)
	req := &wire.SolveRequest{Method: wire.SolveSAPQR, A: a, B: b, Opts: e2eSketchOpts()}
	want, _, err := solver.SolveContext(ctx, solver.MethodSAPQR, a, b, solver.Options{Sketch: e2eSketchOpts()})
	if err != nil {
		t.Fatal(err)
	}

	// Raw handshake: a large-by-threshold solve answers 202 with the job's
	// URL in Location and a pending JobStatus frame in the body.
	frame, err := wire.AppendSolveRequestFrame(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(base+"/v1/solve", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := hr.Body.Read(body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", hr.StatusCode)
	}
	loc := hr.Header.Get("Location")
	if !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location %q, want /v1/jobs/ prefix", loc)
	}
	typ, payload, _, err := wire.SplitFrame(body[:n], 0)
	if err != nil || typ != wire.MsgJobStatus {
		t.Fatalf("202 body: type %v err %v, want MsgJobStatus", typ, err)
	}
	js, err := wire.DecodeJobStatus(payload)
	if err != nil {
		t.Fatal(err)
	}
	if loc != "/v1/jobs/"+js.ID {
		t.Fatalf("Location %q disagrees with body job ID %q", loc, js.ID)
	}
	got, err := c.JobWait(ctx, js.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	vecBits(t, "raw-202 job vs direct", got.X, want)

	// Explicit async pair.
	id, err := c.SolveAsync(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.JobWait(ctx, id, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	vecBits(t, "async job vs direct", got.X, want)

	// Transparent polling: Solve hides the queueing entirely.
	resp, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	vecBits(t, "transparent solve vs direct", resp.X, want)
}

// TestSolveSyncNNZResolution pins the threshold knob's three regimes:
// positive is taken literally, zero selects the default, negative forces
// every solve asynchronous.
func TestSolveSyncNNZResolution(t *testing.T) {
	for _, tc := range []struct{ cfg, want int }{
		{cfg: 500, want: 500},
		{cfg: 0, want: DefaultSolveSyncNNZ},
		{cfg: -1, want: -1},
	} {
		s := &Server{cfg: Config{SolveSyncNNZ: tc.cfg}}
		if got := s.solveSyncNNZ(); got != tc.want {
			t.Errorf("solveSyncNNZ(cfg=%d) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// TestE2ESolveJobCancel cancels a deliberately unconvergeable solve
// mid-run: the job must report progress while running, reach
// StateCancelled after DELETE (proving the worker observed its context
// between LSQR iterations), and surface context.Canceled to JobWait.
func TestE2ESolveJobCancel(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{SolveSyncNNZ: 1})
	c := client.New(base, client.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a, b := longProblem(71)
	id, err := c.SolveAsync(ctx, &wire.SolveRequest{
		Method: wire.SolveLSQRD, A: a, B: b, Opts: e2eSketchOpts(),
		Atol: 1e-300, MaxIters: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running with progress", func() bool {
		js, err := c.JobStatus(ctx, id)
		return err == nil && js.State == jobs.StateRunning && js.Iters > 0
	})
	post, err := c.CancelJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if post.State.Terminal() && post.State != jobs.StateCancelled {
		t.Fatalf("post-cancel state %v", post.State)
	}
	waitFor(t, "job cancelled", func() bool {
		js, err := c.JobStatus(ctx, id)
		return err == nil && js.State == jobs.StateCancelled
	})
	if _, err := c.JobWait(ctx, id, time.Millisecond); !errors.Is(err, context.Canceled) {
		t.Fatalf("JobWait after cancel = %v, want context.Canceled", err)
	}
}

// TestE2ESolveJobExpiry covers the two ways a job ID stops resolving:
// never existed, and TTL-expired after completion. Both must unwrap to
// jobs.ErrNotFound across the wire.
func TestE2ESolveJobExpiry(t *testing.T) {
	base, _, _ := startServer(t, service.Config{},
		Config{SolveSyncNNZ: 1, Jobs: jobs.Config{ResultTTL: 200 * time.Millisecond}})
	c := client.New(base, client.Config{})
	ctx := context.Background()

	if _, err := c.JobStatus(ctx, "no-such-job"); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("unknown job = %v, want jobs.ErrNotFound", err)
	}

	a, b := solveE2E(81, 400, 20)
	id, err := c.SolveAsync(ctx, &wire.SolveRequest{Method: wire.SolveLSQRD, A: a, B: b, Opts: e2eSketchOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.JobWait(ctx, id, time.Millisecond); err != nil {
		t.Fatalf("job did not finish cleanly: %v", err)
	}
	waitFor(t, "job expired", func() bool {
		_, err := c.JobStatus(ctx, id)
		return errors.Is(err, jobs.ErrNotFound)
	})
}

// TestE2ESolveEvictionRace pins the async-job eviction race: a by-ref
// solve admitted while its matrix is resident, but executed after the
// store evicted it, fails with store.ErrNotFound — resolution happens at
// execution time, not admission time.
func TestE2ESolveEvictionRace(t *testing.T) {
	a, b := solveE2E(91, 400, 20)
	other, _ := solveE2E(92, 400, 20)
	budget := other.MemoryBytes() + a.MemoryBytes()/2
	base, svc, _ := startServer(t, service.Config{StoreBytes: budget},
		Config{SolveSyncNNZ: 1, Jobs: jobs.Config{Workers: 1}})
	c := client.New(base, client.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.PutMatrix(ctx, a); err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker with an unconvergeable solve so the by-ref
	// job stays queued while the store churns.
	blockA, blockB := longProblem(93)
	blocker, err := c.SolveAsync(ctx, &wire.SolveRequest{
		Method: wire.SolveLSQRD, A: blockA, B: blockB, Opts: e2eSketchOpts(),
		Atol: 1e-300, MaxIters: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool {
		js, err := c.JobStatus(ctx, blocker)
		return err == nil && js.State == jobs.StateRunning
	})
	victim, err := c.SolveAsync(ctx, &wire.SolveRequest{
		Method: wire.SolveLSQRD, ByRef: true, Fp: a.Fingerprint(), B: b, Opts: e2eSketchOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutMatrix(ctx, other); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim matrix evicted", func() bool {
		return !svc.Store().Contains(a.Fingerprint())
	})
	if _, err := c.CancelJob(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := c.JobWait(ctx, victim, time.Millisecond); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("evicted by-ref job = %v, want store.ErrNotFound", err)
	}
}

// TestE2ESolveOnPlainBackend checks capability gating: a backend that only
// sketches answers /v1/solve and /v1/jobs/ with bad-options, not a panic
// or a hang.
func TestE2ESolveOnPlainBackend(t *testing.T) {
	svc := service.New(service.Config{})
	srv := NewBackend(plainBackend{svc: svc}, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
		svc.Close()
	})
	c := client.New("http://"+l.Addr().String(), client.Config{})
	ctx := context.Background()

	a, b := solveE2E(95, 60, 10)
	if _, err := c.Solve(ctx, &wire.SolveRequest{Method: wire.SolveLSQRD, A: a, B: b, Opts: e2eSketchOpts()}); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("solve on plain backend = %v, want core.ErrBadOptions", err)
	}
	if _, err := c.JobStatus(ctx, "any"); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("job status on plain backend = %v, want core.ErrBadOptions", err)
	}
}
