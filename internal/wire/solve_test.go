package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/jobs"
	"sketchsp/internal/rng"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
)

func solveTestCSC(t *testing.T) *sparse.CSC {
	t.Helper()
	a, err := sparse.NewCSC(4, 2, []int{0, 2, 3}, []int{0, 3, 1}, []float64{1, -2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSolveRequestRoundtrip(t *testing.T) {
	a := solveTestCSC(t)
	cases := []*SolveRequest{
		{
			Method: SolveSAPQR, Gamma: 4, Atol: 1e-12, MaxIters: 100,
			Opts: core.Options{Dist: rng.Rademacher, Source: rng.SourcePhilox, Seed: 7},
			B:    []float64{1, 0, -2, 3.5}, A: a,
		},
		{
			Method: SolveSAPSVD, Async: true, SVDDrop: 1e-10,
			Opts: core.Options{Dist: rng.SJLT, Sparsity: 2},
			B:    []float64{}, A: a,
		},
		{
			Method: SolveRandSVD, Rank: 2, Oversample: 4, PowerIters: 1,
			Opts: core.Options{Dist: rng.Gaussian}, A: a,
		},
		{
			Method: SolveMinNorm, ByRef: true, Fp: a.Fingerprint(),
			B: []float64{1, 2},
		},
		{
			Method: SolveLSQRD, Async: true, ByRef: true, Fp: a.Fingerprint(),
			MaxIters: 7, B: []float64{0.25},
		},
	}
	for _, want := range cases {
		payload := AppendSolveRequest(nil, want)
		got, err := DecodeSolveRequest(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Method, err)
		}
		if !bytes.Equal(AppendSolveRequest(nil, got), payload) {
			t.Fatalf("%v: re-encode differs", want.Method)
		}
		if got.Method != want.Method || got.Async != want.Async || got.ByRef != want.ByRef {
			t.Fatalf("%v: envelope fields drifted: %+v", want.Method, got)
		}
		if want.ByRef && got.Fp != want.Fp {
			t.Fatalf("%v: fingerprint drifted", want.Method)
		}
		frame, err := EncodeSolveRequestFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		typ, p2, rest, err := SplitFrame(frame, 1<<22)
		if err != nil || typ != MsgSolveRequest || len(rest) != 0 || !bytes.Equal(p2, payload) {
			t.Fatalf("%v: frame split mismatch (typ=%v err=%v)", want.Method, typ, err)
		}
	}
}

func TestSolveRequestRejectsDomainViolations(t *testing.T) {
	a := solveTestCSC(t)
	base := func() []byte {
		return AppendSolveRequest(nil, &SolveRequest{
			Method: SolveSAPQR, Gamma: 4, B: []float64{1, 2}, A: a,
		})
	}
	mutate := []struct {
		name string
		mut  func(p []byte) []byte
	}{
		{"bad-method", func(p []byte) []byte { p[0] = byte(maxSolveMethod) + 1; return p }},
		{"bad-flags", func(p []byte) []byte { p[1] |= 4; return p }},
		{"nan-gamma", func(p []byte) []byte {
			copy(p[2:10], le.AppendUint64(nil, 0x7ff8000000000001))
			return p
		}},
		{"negative-atol", func(p []byte) []byte {
			copy(p[10:18], le.AppendUint64(nil, 0x8000000000000001))
			return p
		}},
		{"svddrop-one", func(p []byte) []byte {
			copy(p[18:26], le.AppendUint64(nil, 0x3ff0000000000000)) // 1.0
			return p
		}},
		{"huge-maxiters", func(p []byte) []byte {
			copy(p[26:34], le.AppendUint64(nil, MaxDim+1))
			return p
		}},
		{"rhs-overclaim", func(p []byte) []byte {
			copy(p[solveFixedSize-8:solveFixedSize], le.AppendUint64(nil, 1<<50))
			return p
		}},
		{"truncated", func(p []byte) []byte { return p[:solveFixedSize-1] }},
	}
	for _, tc := range mutate {
		if _, err := DecodeSolveRequest(tc.mut(base())); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", tc.name, err)
		}
	}
	// By-ref frame with a trailing byte after the fingerprint.
	p := AppendSolveRequest(nil, &SolveRequest{
		Method: SolveSAPQR, ByRef: true, Fp: a.Fingerprint(), B: []float64{1},
	})
	if _, err := DecodeSolveRequest(append(p, 0)); !errors.Is(err, ErrMalformed) {
		t.Errorf("byref-trailing: want ErrMalformed, got %v", err)
	}
}

func TestSolveResponseRoundtrip(t *testing.T) {
	cases := []*SolveResponse{
		{
			Status: StatusOK,
			Info: SolveInfo{
				Method: SolveSAPQR, Converged: true, PrecondCached: true,
				SketchNS: 1000, FactorNS: 500, IterNS: 2000, TotalNS: 3500,
				Iters: 12, MemoryBytes: 4096, Residual: 3.5e-13,
			},
			X: []float64{1, -2, 0.5},
		},
		{
			Status: StatusOK,
			Info:   SolveInfo{Method: SolveLSQRD},
			X:      []float64{},
		},
		{
			Status: StatusOK,
			Info:   SolveInfo{Method: SolveRandSVD, TotalNS: 10},
			Factors: &RSVDFactors{
				U:     dense.NewMatrixFrom(3, 2, []float64{1, 0, 0, 0, 1, 0}),
				V:     dense.NewMatrixFrom(2, 2, []float64{0, 1, 1, 0}),
				Sigma: []float64{3, 0.5},
			},
		},
		{Status: StatusBadOptions, Detail: "solver: sketch is numerically rank deficient"},
		{Status: StatusOverloaded, Detail: ""},
	}
	for i, want := range cases {
		payload := AppendSolveResponse(nil, want)
		got, err := DecodeSolveResponse(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !bytes.Equal(AppendSolveResponse(nil, got), payload) {
			t.Fatalf("case %d: re-encode differs", i)
		}
		if got.Status != want.Status || got.Detail != want.Detail || got.Info != want.Info {
			t.Fatalf("case %d: fields drifted: %+v", i, got)
		}
		if want.Factors != nil {
			if !reflect.DeepEqual(got.Factors.Sigma, want.Factors.Sigma) {
				t.Fatalf("case %d: sigma drifted", i)
			}
		} else if !reflect.DeepEqual(got.X, want.X) {
			t.Fatalf("case %d: solution drifted", i)
		}
	}
}

func TestSolveResponseRejectsDomainViolations(t *testing.T) {
	ok := AppendSolveResponse(nil, &SolveResponse{
		Status: StatusOK, Info: SolveInfo{Method: SolveSAPQR}, X: []float64{1},
	})
	mutate := []struct {
		name string
		mut  func(p []byte) []byte
	}{
		{"bad-kind", func(p []byte) []byte { p[1] = 2; return p }},
		{"bad-method", func(p []byte) []byte { p[2] = byte(maxSolveMethod) + 1; return p }},
		{"bad-flags", func(p []byte) []byte { p[3] |= 4; return p }},
		{"negative-sketchns", func(p []byte) []byte {
			copy(p[4:12], le.AppendUint64(nil, ^uint64(0)))
			return p
		}},
		{"nan-residual", func(p []byte) []byte {
			copy(p[52:60], le.AppendUint64(nil, 0x7ff8000000000001))
			return p
		}},
		{"solution-overclaim", func(p []byte) []byte {
			copy(p[1+solveInfoSize:1+solveInfoSize+8], le.AppendUint64(nil, 99))
			return p
		}},
	}
	for _, tc := range mutate {
		p := append([]byte(nil), ok...)
		if _, err := DecodeSolveResponse(tc.mut(p)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", tc.name, err)
		}
	}
	// Factor response whose V rank disagrees with sigma count.
	bad := AppendSolveResponse(nil, &SolveResponse{
		Status: StatusOK, Info: SolveInfo{Method: SolveRandSVD},
		Factors: &RSVDFactors{
			U:     dense.NewMatrixFrom(2, 2, []float64{1, 0, 0, 1}),
			V:     dense.NewMatrixFrom(2, 2, []float64{1, 0, 0, 1}),
			Sigma: []float64{1, 2},
		},
	})
	// Shrink the declared sigma count from 2 to 1 while keeping the sigma
	// bytes: the dense factors then decode at rank 2 ≠ 1.
	off := 1 + solveInfoSize
	trimmed := append([]byte(nil), bad[:off]...)
	trimmed = le.AppendUint64(trimmed, 1)
	trimmed = append(trimmed, bad[off+8:off+16]...) // one sigma value
	trimmed = append(trimmed, bad[off+8+16:]...)    // uLen + factors
	if _, err := DecodeSolveResponse(trimmed); !errors.Is(err, ErrMalformed) {
		t.Errorf("factor-rank-mismatch: want ErrMalformed, got %v", err)
	}
}

func TestJobStatusRoundtrip(t *testing.T) {
	cases := []*JobStatus{
		{Status: StatusOK, ID: "0a1b2c3d", State: jobs.StatePending},
		{Status: StatusOK, ID: "f00d-42", State: jobs.StateRunning, Iters: 19, Resid: 0.0625},
		{
			Status: StatusOK, ID: "abc", State: jobs.StateDone, Iters: 40,
			Result: &SolveResponse{
				Status: StatusOK,
				Info:   SolveInfo{Method: SolveSAPSVD, Converged: true, Iters: 40},
				X:      []float64{2, -1},
			},
		},
		{
			Status: StatusOK, ID: "0", State: jobs.StateFailed,
			Result: &SolveResponse{Status: StatusBadOptions, Detail: "boom"},
		},
		{Status: StatusJobNotFound, Detail: "job not found"},
	}
	for i, want := range cases {
		payload := AppendJobStatus(nil, want)
		got, err := DecodeJobStatus(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !bytes.Equal(AppendJobStatus(nil, got), payload) {
			t.Fatalf("case %d: re-encode differs", i)
		}
		if got.ID != want.ID || got.State != want.State || got.Iters != want.Iters || got.Resid != want.Resid {
			t.Fatalf("case %d: fields drifted: %+v", i, got)
		}
		if (got.Result == nil) != (want.Result == nil) {
			t.Fatalf("case %d: result presence drifted", i)
		}
		frame, err := EncodeJobStatusFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		typ, p2, _, err := SplitFrame(frame, 1<<22)
		if err != nil || typ != MsgJobStatus || !bytes.Equal(p2, payload) {
			t.Fatalf("case %d: frame split mismatch", i)
		}
	}
}

func TestJobStatusRejectsDomainViolations(t *testing.T) {
	ok := AppendJobStatus(nil, &JobStatus{
		Status: StatusOK, ID: "a1", State: jobs.StateRunning, Iters: 2, Resid: 1,
	})
	mutate := []struct {
		name string
		mut  func(p []byte) []byte
	}{
		{"bad-state", func(p []byte) []byte { p[1] = 9; return p }},
		{"negative-iters", func(p []byte) []byte {
			copy(p[2:10], le.AppendUint64(nil, ^uint64(0)))
			return p
		}},
		{"nan-resid", func(p []byte) []byte {
			copy(p[10:18], le.AppendUint64(nil, 0x7ff8000000000001))
			return p
		}},
		{"zero-idlen", func(p []byte) []byte {
			copy(p[18:22], []byte{0, 0, 0, 0})
			return p
		}},
		{"bad-id-byte", func(p []byte) []byte { p[22] = 'A'; return p }},
		{"bad-result-flag", func(p []byte) []byte { p[len(p)-1] = 2; return p }},
		{"trailing", func(p []byte) []byte { return append(p, 0) }},
	}
	for _, tc := range mutate {
		p := append([]byte(nil), ok...)
		if _, err := DecodeJobStatus(tc.mut(p)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", tc.name, err)
		}
	}
}

func TestSolveMethodMapping(t *testing.T) {
	for m := SolveSAPQR; m <= maxSolveMethod; m++ {
		back, ok := SolveMethodOf(m.SolverMethod())
		if !ok || back != m {
			t.Errorf("%v: solver-method mapping does not roundtrip (got %v ok=%v)", m, back, ok)
		}
	}
	if _, ok := SolveMethodOf(solver.MethodDirect); ok {
		t.Error("MethodDirect must have no wire form")
	}
}

func TestSolveStatusOfJobErrors(t *testing.T) {
	if got := StatusOf(jobs.ErrNotFound); got != StatusJobNotFound {
		t.Errorf("jobs.ErrNotFound → %v, want StatusJobNotFound", got)
	}
	if got := StatusOf(jobs.ErrQueueFull); got != StatusOverloaded {
		t.Errorf("jobs.ErrQueueFull → %v, want StatusOverloaded", got)
	}
	if !errors.Is(StatusJobNotFound.Err("x"), jobs.ErrNotFound) {
		t.Error("StatusJobNotFound must unwrap to jobs.ErrNotFound")
	}
}
