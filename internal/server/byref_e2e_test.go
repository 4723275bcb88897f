package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// These tests are the end-to-end half of the by-reference differential
// suite: the same PUT → sketch-by-fingerprint → PATCH flows exercised
// in-process against the service are driven here through a real HTTP
// server and the real client, so the wire codec, the router and the
// fallback logic are all in the loop.

// directAhat is the one-shot reference every served path must match.
func directAhat(t *testing.T, a *sparse.CSC, d int, opts core.Options) *dense.Matrix {
	t.Helper()
	p, err := core.NewPlan(a, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ahat := dense.NewMatrix(d, a.N)
	if _, err := p.Execute(ahat); err != nil {
		t.Fatal(err)
	}
	return ahat
}

// TestE2EByRefBitIdentity uploads each corpus matrix once and asserts the
// by-reference sketch — served entirely from the fingerprint — is
// bit-identical to the direct plan, across sketch families and sources.
func TestE2EByRefBitIdentity(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})

	configs := []struct {
		name string
		opts core.Options
	}{
		{"rademacher-batch", core.Options{Dist: rng.Rademacher, Source: rng.SourceBatchXoshiro, Workers: 2, Seed: 7}},
		{"gaussian-philox", core.Options{Dist: rng.Gaussian, Source: rng.SourcePhilox, Workers: 3, Seed: 99}},
		{"sjlt-batch", core.Options{Dist: rng.SJLT, Source: rng.SourceBatchXoshiro, Workers: 2, Seed: 5, Sparsity: 4}},
	}
	const d = 32
	for name, a := range e2eMatrices(t) {
		info, err := c.PutMatrix(context.Background(), a)
		if err != nil {
			t.Fatalf("PutMatrix(%s): %v", name, err)
		}
		if info.Fp != a.Fingerprint() {
			t.Fatalf("PutMatrix(%s) returned fp %v, want %v", name, info.Fp, a.Fingerprint())
		}
		if !info.Created {
			t.Errorf("PutMatrix(%s): first upload not Created", name)
		}
		// Idempotent: the re-upload finds the content resident.
		again, err := c.PutMatrix(context.Background(), a)
		if err != nil {
			t.Fatalf("re-PutMatrix(%s): %v", name, err)
		}
		if again.Created {
			t.Errorf("re-PutMatrix(%s): reported Created", name)
		}
		for _, cfg := range configs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				got, _, err := c.SketchRef(context.Background(), info.Fp, d, cfg.opts)
				if err != nil {
					t.Fatalf("SketchRef: %v", err)
				}
				if err := bitIdentical(directAhat(t, a, d, cfg.opts), got); err != nil {
					t.Fatalf("by-ref sketch differs from direct: %v", err)
				}
			})
		}
	}
}

// TestE2EByRefNotFoundAndCachedPayload pins the two halves of the repeat
// traffic story: an unknown fingerprint fails with store.ErrNotFound over
// the wire, SketchCached cures it with one upload, and from then on each
// request ships a fixed-size frame instead of the O(nnz) matrix body.
func TestE2EByRefNotFoundAndCachedPayload(t *testing.T) {
	base, _, srv := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})

	a := sparse.PowerLaw(2000, 300, 40000, 1.0, 13)
	opts := core.Options{Dist: rng.Rademacher, Seed: 21, Workers: 2}
	const d = 24

	if _, _, err := c.SketchRef(context.Background(), a.Fingerprint(), d, opts); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("SketchRef(unknown fp) err = %v, want Is(store.ErrNotFound)", err)
	}

	want := directAhat(t, a, d, opts)

	// First SketchCached: miss → upload → retry. Costs the matrix bytes.
	before := srv.Stats().Server.BytesIn
	got, _, err := c.SketchCached(context.Background(), a, d, opts)
	if err != nil {
		t.Fatalf("SketchCached (cold): %v", err)
	}
	if err := bitIdentical(want, got); err != nil {
		t.Fatalf("cold SketchCached differs from direct: %v", err)
	}
	coldBytes := srv.Stats().Server.BytesIn - before
	if floor := int64(16 * a.NNZ()); coldBytes < floor {
		t.Fatalf("cold path shipped %d bytes, expected at least the %d bytes of matrix values+indices",
			coldBytes, floor)
	}

	// Repeat SketchCached: resident fingerprint, one fixed-size frame.
	before = srv.Stats().Server.BytesIn
	got, _, err = c.SketchCached(context.Background(), a, d, opts)
	if err != nil {
		t.Fatalf("SketchCached (warm): %v", err)
	}
	if err := bitIdentical(want, got); err != nil {
		t.Fatalf("warm SketchCached differs from direct: %v", err)
	}
	warmBytes := srv.Stats().Server.BytesIn - before
	if warmBytes != int64(wire.SketchRefWireSize) {
		t.Errorf("warm path shipped %d bytes, want exactly wire.SketchRefWireSize = %d",
			warmBytes, wire.SketchRefWireSize)
	}
	if warmBytes > 1024 {
		t.Errorf("warm path shipped %d bytes, acceptance ceiling is 1 KB", warmBytes)
	}
}

// TestE2EByRefEviction forces the server's store to evict by uploading a
// second matrix into a budget sized for one, and asserts SketchCached
// transparently re-uploads the evicted content with unchanged bits.
func TestE2EByRefEviction(t *testing.T) {
	a := sparse.RandomUniform(400, 80, 0.05, 31)
	b := sparse.RandomUniform(400, 80, 0.05, 32)
	budget := a.MemoryBytes() + 16 // room for one resident matrix, not two
	base, _, _ := startServer(t, service.Config{StoreBytes: budget}, Config{})
	c := client.New(base, client.Config{})

	opts := core.Options{Dist: rng.CountSketch, Source: rng.SourcePhilox, Seed: 3, Workers: 2}
	const d = 16
	wantA := directAhat(t, a, d, opts)

	if _, _, err := c.SketchCached(context.Background(), a, d, opts); err != nil {
		t.Fatalf("seed upload of a: %v", err)
	}
	if _, err := c.PutMatrix(context.Background(), b); err != nil {
		t.Fatalf("upload of b: %v", err)
	}
	// b displaced a; the cached path must cure the NotFound invisibly.
	got, _, err := c.SketchCached(context.Background(), a, d, opts)
	if err != nil {
		t.Fatalf("SketchCached after eviction: %v", err)
	}
	if err := bitIdentical(wantA, got); err != nil {
		t.Fatalf("post-eviction re-upload changed bits: %v", err)
	}
}

// TestE2EPatchFlow drives the incremental-update path over the wire:
// PATCH makes A+ΔA addressable, sketches of the new fingerprint are
// bit-identical to a one-shot of the merged matrix, and the original
// fingerprint still serves its original answer.
func TestE2EPatchFlow(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})

	a, err := sparse.NewCSC(60, 8,
		[]int{0, 3, 5, 5, 8, 10, 12, 12, 14},
		[]int{1, 7, 30, 0, 59, 2, 9, 44, 11, 12, 3, 58, 20, 21},
		[]float64{1, -2, 3, 4, -5, 6, 7, -8, 9, 10, -11, 12, 13, -14})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := sparse.NewCSC(60, 8,
		[]int{0, 1, 1, 3, 4, 4, 4, 5, 5},
		[]int{7, 4, 18, 0, 33},
		[]float64{2, -1, 5, -4, 3}) // −4 at (0,3) cancels a's +4 exactly
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sparse.Add(a, delta)
	if err != nil {
		t.Fatal(err)
	}

	opts := core.Options{Dist: rng.Rademacher, Seed: 17, Workers: 2}
	const d = 20

	infoA, err := c.PutMatrix(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the sketch path for fp(A) so the server has something to advance.
	if _, _, err := c.SketchRef(context.Background(), infoA.Fp, d, opts); err != nil {
		t.Fatal(err)
	}

	infoSum, err := c.PatchMatrix(context.Background(), infoA.Fp, delta)
	if err != nil {
		t.Fatalf("PatchMatrix: %v", err)
	}
	if infoSum.Fp != sum.Fingerprint() {
		t.Fatalf("PATCH returned fp %v, want fingerprint of A+ΔA %v", infoSum.Fp, sum.Fingerprint())
	}

	got, _, err := c.SketchRef(context.Background(), infoSum.Fp, d, opts)
	if err != nil {
		t.Fatalf("SketchRef(A+ΔA): %v", err)
	}
	if err := bitIdentical(directAhat(t, sum, d, opts), got); err != nil {
		t.Fatalf("patched sketch differs from one-shot of A+ΔA: %v", err)
	}
	// Immutability: the pre-patch content still answers under its own fp.
	gotA, _, err := c.SketchRef(context.Background(), infoA.Fp, d, opts)
	if err != nil {
		t.Fatalf("SketchRef(A) after PATCH: %v", err)
	}
	if err := bitIdentical(directAhat(t, a, d, opts), gotA); err != nil {
		t.Fatalf("PATCH disturbed the original fingerprint: %v", err)
	}

	// PATCH against a fingerprint the server never saw → NotFound.
	if _, err := c.PatchMatrix(context.Background(), sparse.Fingerprint{M: 60, N: 8, NNZ: 1, Hash: 0xdead}, delta); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("PATCH unknown fp err = %v, want Is(store.ErrNotFound)", err)
	}
}

// TestE2EPatchPathFrameMismatch sends a raw PATCH whose URL fingerprint
// disagrees with the fingerprint inside the frame — the server must refuse
// it as malformed rather than trust either one.
func TestE2EPatchPathFrameMismatch(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})

	a := sparse.RandomUniform(50, 10, 0.1, 8)
	if _, err := c.PutMatrix(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	delta := &sparse.CSC{M: 50, N: 10, ColPtr: make([]int, 11)}
	body, err := wire.AppendMatrixDeltaFrame(nil, &wire.MatrixDelta{Fp: a.Fingerprint(), Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	other := sparse.Fingerprint{M: 50, N: 10, NNZ: 3, Hash: 0xbeef}
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/matrix/"+wire.FormatFingerprint(other), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched PATCH HTTP status = %d, want 400", res.StatusCode)
	}
	frame, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.SplitFrame(frame, 0)
	if err != nil {
		t.Fatalf("error body is not a wire frame: %v", err)
	}
	if typ != wire.MsgMatrixInfo {
		t.Fatalf("error frame type = %v, want MsgMatrixInfo", typ)
	}
	info, err := wire.DecodeMatrixInfo(payload)
	if err != nil {
		t.Fatalf("error body is not a MatrixInfo frame: %v", err)
	}
	if info.Status != wire.StatusMalformed {
		t.Errorf("status = %v, want StatusMalformed", info.Status)
	}
}

// plainBackend strips the Ref surface off a service, modelling an old
// worker build behind a new router.
type plainBackend struct{ svc *service.Service }

func (b plainBackend) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	return b.svc.Sketch(ctx, a, d, opts)
}
func (b plainBackend) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	return b.svc.SketchBatch(ctx, reqs)
}
func (b plainBackend) Close() { b.svc.Close() }

// TestE2EPlainBackendRefusesByRef pins the downgrade path: a server whose
// backend lacks the content-addressed surface answers every by-ref verb
// with StatusBadOptions instead of panicking or mis-routing.
func TestE2EPlainBackendRefusesByRef(t *testing.T) {
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
	c := client.New("http://"+l.Addr().String(), client.Config{MaxRetries: -1})

	a := sparse.RandomUniform(50, 10, 0.1, 8)
	if _, err := c.PutMatrix(context.Background(), a); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("PutMatrix on plain backend err = %v, want Is(core.ErrBadOptions)", err)
	}
	if _, _, err := c.SketchRef(context.Background(), a.Fingerprint(), 8, core.Options{}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("SketchRef on plain backend err = %v, want Is(core.ErrBadOptions)", err)
	}
	if _, err := c.PatchMatrix(context.Background(), a.Fingerprint(), &sparse.CSC{M: 50, N: 10, ColPtr: make([]int, 11)}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("PatchMatrix on plain backend err = %v, want Is(core.ErrBadOptions)", err)
	}
	// The classic inline path is unaffected by the missing surface.
	if _, _, err := c.Sketch(context.Background(), a, 8, core.Options{Seed: 1}); err != nil {
		t.Errorf("inline Sketch on plain backend: %v", err)
	}
}
