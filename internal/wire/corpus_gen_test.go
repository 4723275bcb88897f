package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// The three committed degenerate corpus seeds for the v3 content-addressed
// messages. Each is a well-framed message whose payload is broken in a way
// a length prefix alone cannot catch, so the fuzzer starts from inputs that
// exercise the deep rejection paths rather than having to mutate its way
// there:
//
//   - truncated-fingerprint: a sketch-by-reference request cut one byte
//     short of its fixed 121-byte payload.
//   - delta-overlapping-rows: a matrix delta whose CSC carries the same row
//     index twice in one column (rejected by sparse validation, not by any
//     size check).
//   - put-oversized-nnz: a matrix put whose declared nnz is ~10^12 while
//     the payload holds two entries — the size guard must refuse to
//     allocate before touching the arrays.
//
// The v4 solve messages add three more:
//
//   - solve-bad-method: a well-formed solve request whose method byte is
//     one past the last defined SolveMethod.
//   - solve-bad-flags: a solve request with an undefined flag bit set —
//     unknown flags must be rejected, not ignored, so the bits stay free
//     for future versions.
//   - jobstatus-bad-state: a job status whose state byte is past
//     StateCancelled.
//
// The shard batch messages add three more:
//
//   - shardbatch-truncated: a valid two-shard batch with the last payload
//     byte cut off — the final item claims more bytes than remain.
//   - shardbatch-overlapping-ranges: two shards both starting at j0=0, the
//     duplicate-coverage shape the decoder (and one layer up, the
//     Accumulator) must reject.
//   - shardbatch-oversized-count: a count field of ~4 billion over a
//     two-item payload — the count guard must refuse before allocating
//     item views.
//
// Four more committed seeds are valid batch-of-one shard frames, the
// shapes that reach the shard item decoders (shardItemSeeds): they must
// decode and re-encode bit-identically, and FuzzWireRoundtrip mutates from
// them.
//
// The seeds are generated deterministically from the codec itself; run
//
//	WIRE_CORPUS_WRITE=1 go test ./internal/wire -run TestCommittedCorpusSeeds
//
// to rewrite them after a wire-format change. The test fails when a
// committed file drifts from what this package would generate.
func corpusSeeds(t *testing.T) map[string][]byte {
	t.Helper()

	// Seed 1: valid sketch-ref frame, fingerprint truncated by one byte.
	ref := AppendSketchRef(nil, &SketchRefRequest{
		D:    8,
		Opts: core.Options{Dist: rng.SJLT, Source: rng.SourcePhilox, Seed: 42, Sparsity: 2},
		Fp:   sparse.Fingerprint{M: 128, N: 64, NNZ: 512, Hash: 0x0123456789abcdef},
	})
	truncated := mustFrame(MsgSketchRef, ref[:len(ref)-1])

	// Seed 2: matrix delta whose CSC repeats row 1 in column 0. Built from
	// a valid two-entry delta, then the second row index is patched to
	// collide with the first. Payload layout: fp (32) + m,n,nnz (24) +
	// colptr (8*(n+1)) + rowidx (8*nnz) + vals.
	delta, err := sparse.NewCSC(3, 2, []int{0, 2, 2}, []int{1, 2}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	dp := AppendMatrixDelta(nil, &MatrixDelta{Fp: delta.Fingerprint(), Delta: delta})
	rowIdxOff := 32 + 24 + 8*(delta.N+1)
	copy(dp[rowIdxOff+8:rowIdxOff+16], dp[rowIdxOff:rowIdxOff+8])
	overlapping := mustFrame(MsgMatrixDelta, dp)

	// Seed 3: matrix put declaring nnz = 2^40 over a two-entry payload. The
	// nnz u64 sits after m and n.
	a, err := sparse.NewCSC(4, 2, []int{0, 1, 2}, []int{0, 3}, []float64{2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pp := AppendMatrixPut(nil, a)
	huge := appendU64(nil, 1<<40)
	copy(pp[16:24], huge)
	oversized := mustFrame(MsgMatrixPut, pp)

	// Seed 4: solve request with method byte one past SolveRandSVD. The
	// method is payload byte 0.
	sp := AppendSolveRequest(nil, &SolveRequest{
		Method: SolveSAPQR, Gamma: 4, B: []float64{1, 2}, A: a,
	})
	sp[0] = byte(maxSolveMethod) + 1
	badMethod := mustFrame(MsgSolveRequest, sp)

	// Seed 5: solve request with undefined flag bit 2 set (byte 1).
	fp := AppendSolveRequest(nil, &SolveRequest{
		Method: SolveLSQRD, B: []float64{0.5}, A: a,
	})
	fp[1] |= 4
	badFlags := mustFrame(MsgSolveRequest, fp)

	// Seed 6: job status whose state byte (payload byte 1) is past
	// StateCancelled.
	jp := AppendJobStatus(nil, &JobStatus{
		Status: StatusOK, ID: "c0ffee", State: 1, Iters: 3, Resid: 0.5,
	})
	jp[1] = 9
	badState := mustFrame(MsgJobStatus, jp)

	// Seed 7: two-shard batch, truncated one byte short of the payload end.
	shardA, err := sparse.NewCSC(4, 2, []int{0, 1, 2}, []int{1, 0}, []float64{1, -2})
	if err != nil {
		t.Fatal(err)
	}
	batch := []ShardRequest{
		{J0: 0, NTotal: 8, SketchRequest: SketchRequest{D: 3, Opts: core.Options{
			Dist: rng.Rademacher, Seed: 5,
		}, A: shardA}},
		{J0: 4, NTotal: 8, SketchRequest: SketchRequest{D: 3, Opts: core.Options{
			Dist: rng.Rademacher, Seed: 5,
		}, A: shardA}},
	}
	bp := AppendShardBatchRequest(nil, batch)
	batchTruncated := mustFrame(MsgShardBatchRequest, bp[:len(bp)-1])

	// Seed 8: both shards start at j0=0 — overlapping column coverage.
	overlapBatch := []ShardRequest{batch[0], batch[0]}
	batchOverlap := mustFrame(MsgShardBatchRequest, AppendShardBatchRequest(nil, overlapBatch))

	// Seed 9: count patched to ~2^32 over the two-item payload (count is
	// payload bytes 0..4).
	cp := AppendShardBatchRequest(nil, batch)
	copy(cp[0:4], appendU32(nil, 1<<32-2))
	batchCount := mustFrame(MsgShardBatchRequest, cp)

	return map[string][]byte{
		"ref-truncated-fingerprint":     truncated,
		"delta-overlapping-rows":        overlapping,
		"put-oversized-nnz":             oversized,
		"solve-bad-method":              badMethod,
		"solve-bad-flags":               badFlags,
		"jobstatus-bad-state":           badState,
		"shardbatch-truncated":          batchTruncated,
		"shardbatch-overlapping-ranges": batchOverlap,
		"shardbatch-oversized-count":    batchCount,
	}
}

type namedFrame struct {
	name  string
	frame []byte
}

// shardItemSeeds returns the batch-of-one shard frames, in a fixed order:
//
//   - shard-request-degenerate: one m×0 shard at j0=0 of a 0-column matrix.
//   - shard-request-emptycols: one shard with empty columns, placed at j0=4
//     and ending exactly at nTotal.
//   - shard-response-ok: one partial sketch with stats.
//   - shard-response-closed: one error item (StatusClosed).
func shardItemSeeds() []namedFrame {
	shapes := testCSCs()
	return []namedFrame{
		{"shard-request-degenerate", mustFrame(MsgShardBatchRequest, AppendShardBatchRequest(nil, []ShardRequest{{
			SketchRequest: SketchRequest{D: 2, A: shapes["degenerate-mx0"]},
		}}))},
		{"shard-request-emptycols", mustFrame(MsgShardBatchRequest, AppendShardBatchRequest(nil, []ShardRequest{{
			J0: 4, NTotal: 68, SketchRequest: SketchRequest{D: 6, Opts: core.Options{
				Dist: rng.Gaussian, Seed: 5, BlockD: 3,
			}, A: shapes["emptycols"]},
		}}))},
		{"shard-response-ok", mustFrame(MsgShardBatchResponse, AppendShardBatchResponse(nil, []ShardResponse{{
			Status: StatusOK, J0: 7, Stats: core.Stats{Samples: 9, Flops: 3},
			Partial: dense.NewMatrixFrom(2, 2, []float64{0.5, -1, 2, 0}),
		}}))},
		{"shard-response-closed", mustFrame(MsgShardBatchResponse, AppendShardBatchResponse(nil, []ShardResponse{{
			Status: StatusClosed, Detail: "draining",
		}}))},
	}
}

func TestCommittedCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundtrip")
	committed := func(name string, frame []byte) {
		t.Helper()
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(frame))))
		path := filepath.Join(dir, name)
		if os.Getenv("WIRE_CORPUS_WRITE") == "1" {
			if werr := os.WriteFile(path, want, 0o644); werr != nil {
				t.Fatal(werr)
			}
			return
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("%s: committed corpus seed missing (regenerate with WIRE_CORPUS_WRITE=1): %v", name, rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: committed corpus seed drifted from the codec (regenerate with WIRE_CORPUS_WRITE=1)", name)
		}
	}
	for name, frame := range corpusSeeds(t) {
		// Every seed must be framed cleanly, then rejected by its decoder —
		// the rejection happens past SplitFrame, in the payload decode.
		typ, payload, _, err := SplitFrame(frame, 1<<22)
		if err != nil {
			t.Fatalf("%s: frame must split cleanly, got %v", name, err)
		}
		switch typ {
		case MsgSketchRef:
			_, err = DecodeSketchRef(payload)
		case MsgMatrixDelta:
			_, err = DecodeMatrixDelta(payload)
		case MsgMatrixPut:
			_, err = DecodeMatrixPut(payload)
		case MsgSolveRequest:
			_, err = DecodeSolveRequest(payload)
		case MsgJobStatus:
			_, err = DecodeJobStatus(payload)
		case MsgShardBatchRequest:
			_, err = DecodeShardBatchRequest(payload)
		default:
			t.Fatalf("%s: unexpected type %v", name, typ)
		}
		if err == nil {
			t.Fatalf("%s: degenerate seed decoded cleanly — it must be rejected", name)
		}
		committed(name, frame)
	}
	for _, seed := range shardItemSeeds() {
		// Every batch-of-one seed must decode to one item and re-encode to
		// the same bytes.
		typ, payload, _, err := SplitFrame(seed.frame, 1<<22)
		if err != nil {
			t.Fatalf("%s: frame must split cleanly, got %v", seed.name, err)
		}
		var n int
		var re []byte
		switch typ {
		case MsgShardBatchRequest:
			var reqs []ShardRequest
			reqs, err = DecodeShardBatchRequest(payload)
			n, re = len(reqs), AppendShardBatchRequest(nil, reqs)
		case MsgShardBatchResponse:
			var rs []ShardResponse
			rs, err = DecodeShardBatchResponse(payload)
			n, re = len(rs), AppendShardBatchResponse(nil, rs)
		default:
			t.Fatalf("%s: unexpected type %v", seed.name, typ)
		}
		if err != nil || n != 1 || !bytes.Equal(re, payload) {
			t.Fatalf("%s: batch-of-one seed must roundtrip as one item: n=%d err=%v", seed.name, n, err)
		}
		committed(seed.name, seed.frame)
	}
}
