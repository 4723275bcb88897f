package wire

import (
	"bytes"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
)

// FuzzWireRoundtrip drives every decoder with arbitrary bytes. The three
// properties under test:
//
//  1. Totality — no input panics; broken bytes come back as ErrMalformed /
//     ErrTooLarge, never as a crash (the server faces untrusted bodies).
//  2. Canonical roundtrip — any frame that *does* decode re-encodes to the
//     exact same bytes, i.e. decode(encode(x)) == x bit-identically and
//     the encoding has a single fixed point per value.
//  3. Scratch reuse — a frame that decodes gives the same value through
//     its type's *Into decoder into scratch that last held a larger frame
//     (intoMismatch).
//
// The seed corpus covers every message type over the degenerate shapes the
// PR 3 differential suite pinned: 0×n, m×0, 0×0, and empty-column matrices.
func FuzzWireRoundtrip(f *testing.F) {
	shapes := testCSCs()
	for _, a := range shapes {
		f.Add(mustFrame(MsgCSC, AppendCSC(nil, a)))
		f.Add(mustFrame(MsgSketchRequest, AppendRequest(nil, 6, core.Options{
			Dist: rng.Rademacher, Source: rng.SourcePhilox, Seed: 11,
		}, a)))
	}
	f.Add(mustFrame(MsgDense, AppendDense(nil, dense.NewMatrix(0, 5))))
	f.Add(mustFrame(MsgDense, AppendDense(nil, dense.NewMatrixFrom(2, 2, []float64{1, -2, 3.5, 0}))))
	f.Add(mustFrame(MsgSketchResponse, AppendResponse(nil, &SketchResponse{
		Status: StatusOK, Stats: core.Stats{Samples: 4, Flops: 8}, Ahat: dense.NewMatrix(2, 3),
	})))
	f.Add(mustFrame(MsgSketchResponse, AppendResponse(nil, &SketchResponse{
		Status: StatusOverloaded, Detail: "queue full",
	})))
	f.Add(mustFrame(MsgBatchRequest, AppendBatchRequest(nil, []SketchRequest{
		{D: 3, A: shapes["degenerate-0xn"]},
		{D: 2, Opts: core.Options{Dist: rng.Gaussian}, A: shapes["emptycols"]},
	})))
	f.Add(mustFrame(MsgBatchResponse, AppendBatchResponse(nil, []SketchResponse{
		{Status: StatusOK, Ahat: dense.NewMatrix(1, 1)},
		{Status: StatusClosed},
	})))
	// Batch-of-one shard frames over degenerate shapes (also committed
	// corpus seeds, see corpus_gen_test.go).
	for _, seed := range shardItemSeeds() {
		f.Add(seed.frame)
	}
	// Sparse sketch family: a valid SJLT request (explicit sparsity), a
	// CountSketch request (default sparsity), and — the rejection seed —
	// a request whose dist field is one past the last known Distribution,
	// which must come back ErrMalformed, not decode to a default.
	f.Add(mustFrame(MsgSketchRequest, AppendRequest(nil, 8, core.Options{
		Dist: rng.SJLT, Sparsity: 3, Seed: 7,
	}, shapes["emptycols"])))
	f.Add(mustFrame(MsgSketchRequest, AppendRequest(nil, 5, core.Options{
		Dist: rng.CountSketch, Source: rng.SourcePhilox,
	}, shapes["degenerate-0xn"])))
	f.Add(mustFrame(MsgSketchRequest, AppendRequest(nil, 4, core.Options{
		Dist: rng.CountSketch + 1,
	}, shapes["emptycols"])))
	// Content-addressed (v3) messages: put, info (ok + error forms),
	// sketch-by-reference, and delta. Degenerate rejection shapes — a
	// truncated fingerprint, a delta with overlapping row indices, and an
	// oversized declared nnz — are committed corpus seeds under
	// testdata/fuzz/FuzzWireRoundtrip (see corpus_gen_test.go).
	for _, a := range shapes {
		f.Add(mustFrame(MsgMatrixPut, AppendMatrixPut(nil, a)))
		f.Add(mustFrame(MsgMatrixDelta, AppendMatrixDelta(nil, &MatrixDelta{
			Fp: a.Fingerprint(), Delta: a,
		})))
		f.Add(mustFrame(MsgSketchRef, AppendSketchRef(nil, &SketchRefRequest{
			D: 4, Opts: core.Options{Dist: rng.Rademacher, Seed: 3},
			Fp: a.Fingerprint(),
		})))
	}
	f.Add(mustFrame(MsgMatrixInfo, AppendMatrixInfo(nil, &MatrixInfo{
		Status: StatusOK, Fp: shapes["emptycols"].Fingerprint(),
		Bytes: 96, Created: true,
	})))
	f.Add(mustFrame(MsgMatrixInfo, AppendMatrixInfo(nil, &MatrixInfo{
		Status: StatusNotFound, Detail: "no such matrix",
	})))
	// Solve messages (v4): sync and async requests over inline and by-ref
	// matrices, solution and factor responses, and job-status envelopes.
	// Rejection shapes (bad method, bad flags, bad job state) are committed
	// corpus seeds under testdata/fuzz/FuzzWireRoundtrip.
	f.Add(mustFrame(MsgSolveRequest, AppendSolveRequest(nil, &SolveRequest{
		Method: SolveSAPQR, Gamma: 4, Atol: 1e-12, MaxIters: 50,
		Opts: core.Options{Dist: rng.Rademacher, Seed: 9},
		B:    []float64{1, -2, 0.5}, A: shapes["emptycols"],
	})))
	f.Add(mustFrame(MsgSolveRequest, AppendSolveRequest(nil, &SolveRequest{
		Method: SolveRandSVD, Async: true, Rank: 3, Oversample: 2, PowerIters: 1,
		Opts: core.Options{Dist: rng.Gaussian}, A: shapes["degenerate-0xn"],
	})))
	f.Add(mustFrame(MsgSolveRequest, AppendSolveRequest(nil, &SolveRequest{
		Method: SolveMinNorm, ByRef: true, Fp: shapes["emptycols"].Fingerprint(),
		B: []float64{2},
	})))
	f.Add(mustFrame(MsgSolveResponse, AppendSolveResponse(nil, &SolveResponse{
		Status: StatusOK, Info: SolveInfo{
			Method: SolveSAPQR, Converged: true, PrecondCached: true,
			SketchNS: 100, IterNS: 50, TotalNS: 200, Iters: 7, MemoryBytes: 64,
			Residual: 1e-14,
		}, X: []float64{3, -0.25},
	})))
	f.Add(mustFrame(MsgSolveResponse, AppendSolveResponse(nil, &SolveResponse{
		Status: StatusOK, Info: SolveInfo{Method: SolveRandSVD},
		Factors: &RSVDFactors{
			U:     dense.NewMatrixFrom(2, 1, []float64{1, 0}),
			V:     dense.NewMatrixFrom(3, 1, []float64{0, 1, 0}),
			Sigma: []float64{2.5},
		},
	})))
	f.Add(mustFrame(MsgSolveResponse, AppendSolveResponse(nil, &SolveResponse{
		Status: StatusBadOptions, Detail: "rank deficient",
	})))
	f.Add(mustFrame(MsgJobStatus, AppendJobStatus(nil, &JobStatus{
		Status: StatusOK, ID: "a1b2c3", State: 1, Iters: 12, Resid: 0.125,
	})))
	f.Add(mustFrame(MsgJobStatus, AppendJobStatus(nil, &JobStatus{
		Status: StatusOK, ID: "deadbeef-00", State: 2, Iters: 40,
		Result: &SolveResponse{Status: StatusOK, Info: SolveInfo{
			Method: SolveLSQRD, Converged: true, Iters: 40,
		}, X: []float64{1}},
	})))
	f.Add(mustFrame(MsgJobStatus, AppendJobStatus(nil, &JobStatus{
		Status: StatusJobNotFound, Detail: "job expired",
	})))
	// Shard batch messages: multi-shard and single-shard batches with
	// disjoint sorted ranges, and a mixed-outcome response. Rejection
	// shapes (truncated batch, overlapping j0 ranges, oversized count) are
	// committed corpus seeds under testdata/fuzz/FuzzWireRoundtrip.
	f.Add(mustFrame(MsgShardBatchRequest, AppendShardBatchRequest(nil, []ShardRequest{
		{J0: 0, NTotal: 64, SketchRequest: SketchRequest{D: 4, Opts: core.Options{
			Dist: rng.Rademacher, Seed: 3,
		}, A: shapes["emptycols"]}},
		{J0: 40, NTotal: 64, SketchRequest: SketchRequest{D: 4, Opts: core.Options{
			Dist: rng.Rademacher, Seed: 3,
		}, A: shapes["emptycols"]}},
	})))
	f.Add(mustFrame(MsgShardBatchRequest, AppendShardBatchRequest(nil, []ShardRequest{
		{J0: 2, NTotal: 9, SketchRequest: SketchRequest{D: 1, A: shapes["degenerate-0xn"]}},
	})))
	f.Add(mustFrame(MsgShardBatchResponse, AppendShardBatchResponse(nil, []ShardResponse{
		{Status: StatusOK, J0: 5, Stats: core.Stats{Samples: 2, Flops: 6},
			Partial: dense.NewMatrixFrom(2, 1, []float64{-0.5, 4})},
		{Status: StatusOverloaded, Detail: "queue full"},
	})))

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 22
		typ, payload, _, err := SplitFrame(data, limit)
		if err != nil {
			return // rejection is the expected outcome for mutated bytes
		}
		if _, msg := intoMismatch(typ, payload); msg != "" {
			t.Fatal(msg)
		}
		switch typ {
		case MsgCSC:
			if a, err := DecodeCSC(payload); err == nil {
				if !bytes.Equal(AppendCSC(nil, a), payload) {
					t.Fatal("CSC re-encode differs from accepted payload")
				}
			}
		case MsgDense:
			if m, err := DecodeDense(payload); err == nil {
				if !bytes.Equal(AppendDense(nil, m), payload) {
					t.Fatal("dense re-encode differs from accepted payload")
				}
			}
		case MsgSketchRequest:
			if req, err := DecodeRequest(payload); err == nil {
				if !bytes.Equal(AppendRequest(nil, req.D, req.Opts, req.A), payload) {
					t.Fatal("request re-encode differs from accepted payload")
				}
			}
		case MsgSketchResponse:
			if resp, err := DecodeResponse(payload); err == nil {
				if !bytes.Equal(AppendResponse(nil, resp), payload) {
					t.Fatal("response re-encode differs from accepted payload")
				}
			}
		case MsgBatchRequest:
			if reqs, err := DecodeBatchRequest(payload); err == nil {
				if !bytes.Equal(AppendBatchRequest(nil, reqs), payload) {
					t.Fatal("batch request re-encode differs from accepted payload")
				}
			}
		case MsgBatchResponse:
			if rs, err := DecodeBatchResponse(payload); err == nil {
				if !bytes.Equal(AppendBatchResponse(nil, rs), payload) {
					t.Fatal("batch response re-encode differs from accepted payload")
				}
			}
		case MsgMatrixPut:
			if a, err := DecodeMatrixPut(payload); err == nil {
				if !bytes.Equal(AppendMatrixPut(nil, a), payload) {
					t.Fatal("matrix-put re-encode differs from accepted payload")
				}
			}
		case MsgMatrixInfo:
			if info, err := DecodeMatrixInfo(payload); err == nil {
				if !bytes.Equal(AppendMatrixInfo(nil, info), payload) {
					t.Fatal("matrix-info re-encode differs from accepted payload")
				}
			}
		case MsgSketchRef:
			if req, err := DecodeSketchRef(payload); err == nil {
				if !bytes.Equal(AppendSketchRef(nil, req), payload) {
					t.Fatal("sketch-ref re-encode differs from accepted payload")
				}
			}
		case MsgMatrixDelta:
			if d, err := DecodeMatrixDelta(payload); err == nil {
				if !bytes.Equal(AppendMatrixDelta(nil, d), payload) {
					t.Fatal("matrix-delta re-encode differs from accepted payload")
				}
			}
		case MsgSolveRequest:
			if req, err := DecodeSolveRequest(payload); err == nil {
				if !bytes.Equal(AppendSolveRequest(nil, req), payload) {
					t.Fatal("solve request re-encode differs from accepted payload")
				}
			}
		case MsgSolveResponse:
			if resp, err := DecodeSolveResponse(payload); err == nil {
				if !bytes.Equal(AppendSolveResponse(nil, resp), payload) {
					t.Fatal("solve response re-encode differs from accepted payload")
				}
			}
		case MsgJobStatus:
			if js, err := DecodeJobStatus(payload); err == nil {
				if !bytes.Equal(AppendJobStatus(nil, js), payload) {
					t.Fatal("job status re-encode differs from accepted payload")
				}
			}
		case MsgShardBatchRequest:
			if reqs, err := DecodeShardBatchRequest(payload); err == nil {
				if !bytes.Equal(AppendShardBatchRequest(nil, reqs), payload) {
					t.Fatal("shard batch request re-encode differs from accepted payload")
				}
			}
		case MsgShardBatchResponse:
			if rs, err := DecodeShardBatchResponse(payload); err == nil {
				if !bytes.Equal(AppendShardBatchResponse(nil, rs), payload) {
					t.Fatal("shard batch response re-encode differs from accepted payload")
				}
			}
		}
	})
}
