package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
)

// sizedMsg is one message value as AppendFrame takes it: its type, the
// exact payload size its size function reports, and its payload encoder.
type sizedMsg struct {
	typ  MsgType
	size int
	enc  func(dst []byte) []byte
}

// checkExactFrame frames m from nothing and checks the one framing rule:
// the frame is HeaderSize plus the size function's bytes, in a buffer
// allocated once at exactly that size (a reallocation would leave spare
// capacity behind), and the payload alone encodes to the same length.
func checkExactFrame(t *testing.T, name string, m sizedMsg) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, m.typ, m.size, m.enc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(frame) != HeaderSize+m.size || cap(frame) != len(frame) {
		t.Fatalf("%s: frame len %d cap %d, want both HeaderSize+%d = %d", name, len(frame), cap(frame), m.size, HeaderSize+m.size)
	}
	if n := len(m.enc(nil)); n != m.size {
		t.Fatalf("%s: payload encodes to %d bytes, size function says %d", name, n, m.size)
	}
	return frame
}

// sizedOf decodes a payload of message type typ and returns the decoded
// value as a sizedMsg, so a frame that decodes can be re-framed exactly.
func sizedOf(typ MsgType, payload []byte) (sizedMsg, error) {
	m := sizedMsg{typ: typ}
	switch typ {
	case MsgCSC, MsgMatrixPut:
		a, err := DecodeCSC(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, CSCSize(a), func(dst []byte) []byte { return AppendCSC(dst, a) }}, nil
	case MsgDense:
		d, err := DecodeDense(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, DenseSize(d), func(dst []byte) []byte { return AppendDense(dst, d) }}, nil
	case MsgSketchRequest:
		r, err := DecodeRequest(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, RequestSize(r.A), func(dst []byte) []byte { return AppendRequest(dst, r.D, r.Opts, r.A) }}, nil
	case MsgSketchResponse:
		r, err := DecodeResponse(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, ResponseSize(r), func(dst []byte) []byte { return AppendResponse(dst, r) }}, nil
	case MsgBatchRequest:
		rs, err := DecodeBatchRequest(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, BatchRequestSize(rs), func(dst []byte) []byte { return AppendBatchRequest(dst, rs) }}, nil
	case MsgBatchResponse:
		rs, err := DecodeBatchResponse(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, BatchResponseSize(rs), func(dst []byte) []byte { return AppendBatchResponse(dst, rs) }}, nil
	case MsgMatrixInfo:
		r, err := DecodeMatrixInfo(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, MatrixInfoSize(r), func(dst []byte) []byte { return AppendMatrixInfo(dst, r) }}, nil
	case MsgSketchRef:
		r, err := DecodeSketchRef(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, SketchRefSize, func(dst []byte) []byte { return AppendSketchRef(dst, r) }}, nil
	case MsgMatrixDelta:
		r, err := DecodeMatrixDelta(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, MatrixDeltaSize(r), func(dst []byte) []byte { return AppendMatrixDelta(dst, r) }}, nil
	case MsgSolveRequest:
		r, err := DecodeSolveRequest(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, SolveRequestSize(r), func(dst []byte) []byte { return AppendSolveRequest(dst, r) }}, nil
	case MsgSolveResponse:
		r, err := DecodeSolveResponse(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, SolveResponseSize(r), func(dst []byte) []byte { return AppendSolveResponse(dst, r) }}, nil
	case MsgJobStatus:
		j, err := DecodeJobStatus(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, JobStatusSize(j), func(dst []byte) []byte { return AppendJobStatus(dst, j) }}, nil
	case MsgShardBatchRequest:
		rs, err := DecodeShardBatchRequest(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, ShardBatchRequestSize(rs), func(dst []byte) []byte { return AppendShardBatchRequest(dst, rs) }}, nil
	case MsgShardBatchResponse:
		rs, err := DecodeShardBatchResponse(payload)
		if err != nil {
			return m, err
		}
		return sizedMsg{typ, ShardBatchResponseSize(rs), func(dst []byte) []byte { return AppendShardBatchResponse(dst, rs) }}, nil
	}
	return m, fmt.Errorf("%w: no size function for %v", ErrMalformed, typ)
}

// exactSizeValues returns one or more values of every message type over
// the fuzz corpus's matrix shapes, each with its error forms.
func exactSizeValues() map[string]sizedMsg {
	shapes := testCSCs()
	opts := core.Options{Dist: rng.Rademacher, Source: rng.SourcePhilox, Seed: 11, TuneBlockN: true}
	ahat := dense.NewMatrixFrom(2, 3, []float64{1, -2, 3.5, 0, 0.25, -7})
	loose := dense.NewMatrix(5, 4).View(1, 1, 3, 2) // stride 5, encodes tight
	out := map[string]sizedMsg{}
	for name, a := range shapes {
		out["csc/"+name] = sizedMsg{MsgCSC, CSCSize(a), func(dst []byte) []byte { return AppendCSC(dst, a) }}
		out["put/"+name] = sizedMsg{MsgMatrixPut, CSCSize(a), func(dst []byte) []byte { return AppendMatrixPut(dst, a) }}
		out["request/"+name] = sizedMsg{MsgSketchRequest, RequestSize(a), func(dst []byte) []byte { return AppendRequest(dst, 6, opts, a) }}
		delta := &MatrixDelta{Fp: a.Fingerprint(), Delta: a}
		out["delta/"+name] = sizedMsg{MsgMatrixDelta, MatrixDeltaSize(delta), func(dst []byte) []byte { return AppendMatrixDelta(dst, delta) }}
		ref := &SketchRefRequest{D: 4, Opts: opts, Fp: a.Fingerprint()}
		out["ref/"+name] = sizedMsg{MsgSketchRef, SketchRefSize, func(dst []byte) []byte { return AppendSketchRef(dst, ref) }}
		solve := &SolveRequest{Method: SolveSAPQR, Gamma: 2, B: []float64{1, -1, 0.5}, Opts: opts, A: a}
		out["solve-request/"+name] = sizedMsg{MsgSolveRequest, SolveRequestSize(solve), func(dst []byte) []byte { return AppendSolveRequest(dst, solve) }}
		reqs := []SketchRequest{{D: 3, Opts: opts, A: a}, {D: 1, A: a}}
		out["batch-request/"+name] = sizedMsg{MsgBatchRequest, BatchRequestSize(reqs), func(dst []byte) []byte { return AppendBatchRequest(dst, reqs) }}
		shards := []ShardRequest{{NTotal: 2 * a.N, SketchRequest: reqs[0]}, {J0: a.N, NTotal: 2 * a.N, SketchRequest: reqs[1]}}
		out["shardbatch-request/"+name] = sizedMsg{MsgShardBatchRequest, ShardBatchRequestSize(shards), func(dst []byte) []byte { return AppendShardBatchRequest(dst, shards) }}
	}
	for name, m := range map[string]*dense.Matrix{"empty": dense.NewMatrix(0, 5), "2x3": ahat, "view": loose} {
		out["dense/"+name] = sizedMsg{MsgDense, DenseSize(m), func(dst []byte) []byte { return AppendDense(dst, m) }}
	}
	resps := []SketchResponse{
		{Status: StatusOK, Stats: core.Stats{Samples: 4, Flops: 8, Imbalance: 1.5}, Ahat: ahat},
		{Status: StatusOK, Ahat: loose},
		{Status: StatusOverloaded, Detail: "queue full"},
		{Status: StatusClosed},
	}
	for i := range resps {
		r := &resps[i]
		out[fmt.Sprintf("response/%d", i)] = sizedMsg{MsgSketchResponse, ResponseSize(r), func(dst []byte) []byte { return AppendResponse(dst, r) }}
	}
	out["batch-response"] = sizedMsg{MsgBatchResponse, BatchResponseSize(resps), func(dst []byte) []byte { return AppendBatchResponse(dst, resps) }}
	shardResps := []ShardResponse{
		{Status: StatusOK, J0: 7, Stats: core.Stats{Samples: 9}, Partial: ahat},
		{Status: StatusOK, Partial: loose},
		{Status: StatusDeadlineExceeded, Detail: "late"},
	}
	out["shardbatch-response"] = sizedMsg{MsgShardBatchResponse, ShardBatchResponseSize(shardResps), func(dst []byte) []byte { return AppendShardBatchResponse(dst, shardResps) }}
	for i, r := range []*MatrixInfo{
		{Status: StatusOK, Fp: shapes["emptycols"].Fingerprint(), Bytes: 96, Created: true},
		{Status: StatusNotFound, Detail: "no such matrix"},
	} {
		out[fmt.Sprintf("matrix-info/%d", i)] = sizedMsg{MsgMatrixInfo, MatrixInfoSize(r), func(dst []byte) []byte { return AppendMatrixInfo(dst, r) }}
	}
	solved := &SolveResponse{Status: StatusOK, Info: SolveInfo{Method: SolveSAPQR, Iters: 3}, X: []float64{3, -0.25}}
	solveResps := []*SolveResponse{
		solved,
		{Status: StatusOK, Info: SolveInfo{Method: SolveRandSVD}, Factors: &RSVDFactors{
			U: dense.NewMatrixFrom(2, 1, []float64{1, 0}), V: loose.View(0, 0, 3, 1), Sigma: []float64{2.5},
		}},
		{Status: StatusBadOptions, Detail: "rank deficient"},
	}
	for i, r := range solveResps {
		out[fmt.Sprintf("solve-response/%d", i)] = sizedMsg{MsgSolveResponse, SolveResponseSize(r), func(dst []byte) []byte { return AppendSolveResponse(dst, r) }}
	}
	solveRef := &SolveRequest{Method: SolveMinNorm, ByRef: true, Fp: shapes["emptycols"].Fingerprint(), B: []float64{2}}
	out["solve-request/by-ref"] = sizedMsg{MsgSolveRequest, SolveRequestSize(solveRef), func(dst []byte) []byte { return AppendSolveRequest(dst, solveRef) }}
	for i, j := range []*JobStatus{
		{Status: StatusOK, ID: "a1b2c3", State: 1, Iters: 12, Resid: 0.125},
		{Status: StatusOK, ID: "deadbeef-00", State: 2, Result: solved},
		{Status: StatusJobNotFound, Detail: "job expired"},
	} {
		out[fmt.Sprintf("job-status/%d", i)] = sizedMsg{MsgJobStatus, JobStatusSize(j), func(dst []byte) []byte { return AppendJobStatus(dst, j) }}
	}
	for _, typ := range []MsgType{MsgSketchResponse, MsgBatchResponse, MsgShardBatchResponse, MsgMatrixInfo} {
		out["error-payload/"+typ.String()] = sizedMsg{typ, ErrorPayloadSize(typ, "shed"), func(dst []byte) []byte {
			return AppendErrorPayload(dst, typ, StatusOverloaded, "shed")
		}}
	}
	return out
}

// TestExactFrameSizes pins the one framing rule for every message type:
// the size function is exact and the frame is written once, into a buffer
// of that size. Every committed FuzzWireRoundtrip seed that decodes must
// re-frame to its own bytes under the same rule; the rejection seeds are
// broken frames with no value to size.
func TestExactFrameSizes(t *testing.T) {
	seen := map[MsgType]bool{}
	for name, m := range exactSizeValues() {
		checkExactFrame(t, name, m)
		seen[m.typ] = true
	}
	for typ := MsgType(1); typ <= MsgShardBatchResponse; typ++ {
		if typ.String() != fmt.Sprintf("MsgType(%d)", uint8(typ)) && !seen[typ] {
			t.Errorf("no exact-size case for %v", typ)
		}
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundtrip")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	decoded := 0
	for _, fi := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", fi.Name(), err)
		}
		typ, payload, rest, err := SplitFrame([]byte(body), 1<<22)
		if err != nil || len(rest) != 0 {
			continue
		}
		m, err := sizedOf(typ, payload)
		if err != nil {
			continue
		}
		decoded++
		if frame := checkExactFrame(t, fi.Name(), m); !bytes.Equal(frame, []byte(body)) {
			t.Fatalf("%s: re-framed seed differs from the committed bytes", fi.Name())
		}
	}
	if decoded == 0 {
		t.Fatal("no committed seed decoded")
	}
}

// TestEncodeFrameAllocations pins the client's request frames to one
// allocation each: the exact-size frame buffer, nothing else.
func TestEncodeFrameAllocations(t *testing.T) {
	shapes := testCSCs()
	a := shapes["uniform-200x40"]
	opts := core.Options{Dist: rng.Rademacher, Seed: 3}
	shards := []ShardRequest{
		{NTotal: 2 * a.N, SketchRequest: SketchRequest{D: 8, Opts: opts, A: a}},
		{J0: a.N, NTotal: 2 * a.N, SketchRequest: SketchRequest{D: 8, Opts: opts, A: shapes["emptycols"]}},
	}
	for name, encode := range map[string]func() ([]byte, error){
		"EncodeRequestFrame":           func() ([]byte, error) { return EncodeRequestFrame(8, opts, a) },
		"EncodeShardBatchRequestFrame": func() ([]byte, error) { return EncodeShardBatchRequestFrame(shards) },
	} {
		if n := testing.AllocsPerRun(50, func() {
			if _, err := encode(); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: %v allocations per frame, want 1", name, n)
		}
	}
}
