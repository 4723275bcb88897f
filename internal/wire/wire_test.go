package wire

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
)

// testCSCs is the shape corpus: the PR 3 differential degenerates (0×n,
// m×0, empty columns) plus regular shapes, the seeds both the roundtrip
// table and the fuzzer start from.
func testCSCs() map[string]*sparse.CSC {
	empty := func(m, n int) *sparse.CSC {
		r := rand.New(rand.NewSource(7))
		coo := sparse.NewCOO(m, n, n)
		for j := 1; j < n; j += 2 {
			coo.Append(r.Intn(m), j, r.Float64()*2-1)
		}
		return coo.ToCSC()
	}
	return map[string]*sparse.CSC{
		"degenerate-0xn":  {M: 0, N: 33, ColPtr: make([]int, 34)},
		"degenerate-mx0":  {M: 77, N: 0, ColPtr: []int{0}},
		"degenerate-0x0":  {M: 0, N: 0, ColPtr: []int{0}},
		"emptycols":       empty(300, 64),
		"uniform-200x40":  sparse.RandomUniform(200, 40, 0.05, 3),
		"powerlaw-150x30": sparse.PowerLaw(150, 30, 400, 1.5, 4),
		"single-entry":    {M: 5, N: 2, ColPtr: []int{0, 1, 1}, RowIdx: []int{3}, Val: []float64{-2.5}},
	}
}

// mustFrame frames a test payload, panicking on the (impossible for test
// sizes) frame-limit error so call sites stay expressions.
func mustFrame(t MsgType, payload []byte) []byte {
	b, err := AppendFrame(nil, t, len(payload), func(dst []byte) []byte { return append(dst, payload...) })
	if err != nil {
		panic(err)
	}
	return b
}

// appendU64 and appendU32 append little-endian words; the corpus generator
// patches seed payloads with them.
func appendU64(dst []byte, v uint64) []byte { return le.AppendUint64(dst, v) }

func appendU32(dst []byte, v uint32) []byte { return le.AppendUint32(dst, v) }

func TestCSCRoundtrip(t *testing.T) {
	for name, a := range testCSCs() {
		payload := AppendCSC(nil, a)
		got, err := DecodeCSC(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.M != a.M || got.N != a.N || got.NNZ() != a.NNZ() {
			t.Fatalf("%s: shape mismatch %dx%d/%d", name, got.M, got.N, got.NNZ())
		}
		if !bytes.Equal(AppendCSC(nil, got), payload) {
			t.Fatalf("%s: re-encode differs", name)
		}
	}
}

func TestCSCDecodeReuse(t *testing.T) {
	big := sparse.RandomUniform(500, 60, 0.1, 1)
	small := sparse.RandomUniform(50, 6, 0.1, 2)
	var dst sparse.CSC
	if err := DecodeCSCInto(&dst, AppendCSC(nil, big)); err != nil {
		t.Fatal(err)
	}
	ptrBefore := &dst.Val[0]
	if err := DecodeCSCInto(&dst, AppendCSC(nil, small)); err != nil {
		t.Fatal(err)
	}
	if &dst.Val[0] != ptrBefore {
		t.Error("DecodeCSCInto reallocated despite sufficient capacity")
	}
	if dst.M != small.M || dst.N != small.N || dst.NNZ() != small.NNZ() {
		t.Errorf("reused decode got %dx%d/%d", dst.M, dst.N, dst.NNZ())
	}
}

func TestDenseRoundtrip(t *testing.T) {
	mats := map[string]*dense.Matrix{
		"0x0": dense.NewMatrix(0, 0),
		"3x0": dense.NewMatrix(3, 0),
		"0x4": dense.NewMatrix(0, 4),
		"4x3": dense.NewMatrixFrom(4, 3, []float64{
			1, 2, 3,
			-4, 5e300, math.Inf(1),
			math.Copysign(0, -1), 8, 9,
			10, math.NaN(), 12,
		}),
	}
	for name, m := range mats {
		payload := AppendDense(nil, m)
		got, err := DecodeDense(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Rows != m.Rows || got.Cols != m.Cols {
			t.Fatalf("%s: dims %dx%d want %dx%d", name, got.Rows, got.Cols, m.Rows, m.Cols)
		}
		if !bytes.Equal(AppendDense(nil, got), payload) {
			t.Fatalf("%s: re-encode differs (bit identity broken)", name)
		}
	}
	// A loose-stride view must encode identically to its tight clone.
	big := dense.NewMatrix(10, 6)
	for i := range big.Data {
		big.Data[i] = float64(i)
	}
	v := big.View(2, 1, 4, 3)
	if !bytes.Equal(AppendDense(nil, v), AppendDense(nil, v.Clone())) {
		t.Error("view encodes differently from its tight clone")
	}
}

func TestRequestRoundtrip(t *testing.T) {
	optsList := []core.Options{
		{},
		{Algorithm: core.AlgAuto, Dist: rng.Gaussian, Source: rng.SourcePhilox,
			Seed: 42, BlockD: 128, BlockN: 33, Workers: 4, Timed: true,
			RNGCost: 2.5, TuneBlockN: true, Sched: core.SchedUniform},
		{Algorithm: core.Alg4, Dist: rng.ScaledInt, Seed: ^uint64(0), Sched: core.SchedNoSteal},
		{Dist: rng.SJLT, Sparsity: 9, Seed: 3},
		{Algorithm: core.Alg3, Dist: rng.CountSketch, Source: rng.SourcePhilox, Workers: 2},
	}
	for name, a := range testCSCs() {
		for i, opts := range optsList {
			payload := AppendRequest(nil, 17, opts, a)
			req, err := DecodeRequest(payload)
			if err != nil {
				t.Fatalf("%s/opts%d: decode: %v", name, i, err)
			}
			if req.D != 17 || req.Opts != opts {
				t.Fatalf("%s/opts%d: decoded (%d, %+v)", name, i, req.D, req.Opts)
			}
			if !bytes.Equal(AppendRequest(nil, req.D, req.Opts, req.A), payload) {
				t.Fatalf("%s/opts%d: re-encode differs", name, i)
			}
		}
	}
}

func TestResponseRoundtrip(t *testing.T) {
	ahat := dense.NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	rs := []SketchResponse{
		{Status: StatusOK,
			Stats: core.Stats{Samples: 100, Flops: 2400, SampleTime: time.Millisecond,
				ConvertTime: 2 * time.Millisecond, Total: 5 * time.Millisecond,
				Steals: 3, Imbalance: 1.25},
			Ahat: ahat},
		{Status: StatusOK, Ahat: dense.NewMatrix(0, 0)},
		{Status: StatusOverloaded, Detail: "admission queue full"},
		{Status: StatusInvalidMatrix, Detail: ""},
		{Status: StatusInternal, Detail: "boom"},
	}
	for i := range rs {
		payload := AppendResponse(nil, &rs[i])
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if got.Status != rs[i].Status || got.Detail != rs[i].Detail {
			t.Fatalf("resp %d: got %+v", i, got)
		}
		if got.Stats.Samples != rs[i].Stats.Samples || got.Stats.Total != rs[i].Stats.Total ||
			got.Stats.Imbalance != rs[i].Stats.Imbalance || got.Stats.Steals != rs[i].Stats.Steals {
			t.Fatalf("resp %d: stats %+v", i, got.Stats)
		}
		if !bytes.Equal(AppendResponse(nil, got), payload) {
			t.Fatalf("resp %d: re-encode differs", i)
		}
	}
}

func TestBatchRoundtrip(t *testing.T) {
	shapes := testCSCs()
	reqs := []SketchRequest{
		{D: 8, A: shapes["uniform-200x40"]},
		{D: 4, Opts: core.Options{Dist: rng.Rademacher, Seed: 9}, A: shapes["degenerate-0xn"]},
		{D: 1, A: shapes["degenerate-mx0"]},
	}
	payload := AppendBatchRequest(nil, reqs)
	got, err := DecodeBatchRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests", len(got))
	}
	if !bytes.Equal(AppendBatchRequest(nil, got), payload) {
		t.Fatal("batch request re-encode differs")
	}

	rs := []SketchResponse{
		{Status: StatusOK, Stats: core.Stats{Flops: 2}, Ahat: dense.NewMatrix(2, 2)},
		{Status: StatusOverloaded, Detail: "later"},
	}
	bp := AppendBatchResponse(nil, rs)
	gotR, err := DecodeBatchResponse(bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != 2 || gotR[1].Status != StatusOverloaded {
		t.Fatalf("batch responses %+v", gotR)
	}
	if !bytes.Equal(AppendBatchResponse(nil, gotR), bp) {
		t.Fatal("batch response re-encode differs")
	}
}

func TestFrameIO(t *testing.T) {
	payload := AppendCSC(nil, testCSCs()["uniform-200x40"])
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgCSC, payload); err != nil {
		t.Fatal(err)
	}
	framed := buf.Bytes()
	typ, got, rest, err := SplitFrame(framed, 0)
	if err != nil || typ != MsgCSC || len(rest) != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("SplitFrame: typ=%v len(rest)=%d err=%v", typ, len(rest), err)
	}
	typ2, got2, err := ReadMessage(bytes.NewReader(framed), 0)
	if err != nil || typ2 != MsgCSC || !bytes.Equal(got2, payload) {
		t.Fatalf("ReadMessage: typ=%v err=%v", typ2, err)
	}
	// Two concatenated frames: rest must carry the second.
	double := append(append([]byte{}, framed...), framed...)
	_, _, rest, err = SplitFrame(double, 0)
	if err != nil || !bytes.Equal(rest, framed) {
		t.Fatalf("concatenated frames: err=%v len(rest)=%d", err, len(rest))
	}
}

func TestFrameErrors(t *testing.T) {
	good := mustFrame(MsgCSC, AppendCSC(nil, testCSCs()["single-entry"]))
	cases := map[string][]byte{
		"short":       good[:HeaderSize-1],
		"bad-magic":   append([]byte("XYZ"), good[3:]...),
		"bad-version": func() []byte { b := append([]byte{}, good...); b[3] = 9; return b }(),
		"reserved":    func() []byte { b := append([]byte{}, good...); b[6] = 1; return b }(),
		"truncated":   good[:len(good)-3],
	}
	for name, b := range cases {
		if _, _, _, err := SplitFrame(b, 0); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if _, _, err := ReadMessage(bytes.NewReader(b), 0); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s (reader): err = %v, want ErrMalformed", name, err)
		}
	}
	if _, _, _, err := SplitFrame(good, 4); !errors.Is(err, ErrTooLarge) {
		t.Errorf("tight limit: err = %v, want ErrTooLarge", err)
	}
}

// TestEncodeRejectsOversizedPayload pins the 32-bit frame ceiling: a
// payload longer than the header's u32 length field can express must be
// rejected with ErrTooLarge, never silently wrapped into a frame whose
// declared length desyncs the stream. The oversized slice is never
// written, so the 4 GiB allocation stays virtual.
func TestEncodeRejectsOversizedPayload(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("cannot build an oversized payload on a 32-bit platform")
	}
	called := false
	dst, err := AppendFrame(nil, MsgCSC, MaxFramePayload+1, func(dst []byte) []byte { called = true; return dst })
	if !errors.Is(err, ErrTooLarge) || called || dst != nil {
		t.Errorf("AppendFrame: err = %v, encoder called %v, dst %d bytes; want ErrTooLarge before encoding", err, called, len(dst))
	}
	huge := make([]byte, int64(MaxFramePayload)+1)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgCSC, huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("WriteMessage: err = %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("WriteMessage wrote %d bytes before failing", buf.Len())
	}
}

// TestPeekStatusAndSplitBatchPayload pins the cheap classification path the
// client's retry loop uses: status bytes are readable without decoding any
// matrix, for single and per-batch-item payloads alike.
func TestPeekStatusAndSplitBatchPayload(t *testing.T) {
	ok := AppendResponse(nil, &SketchResponse{Status: StatusOK, Ahat: dense.NewMatrix(1, 2)})
	if st, err := PeekStatus(ok); err != nil || st != StatusOK {
		t.Errorf("PeekStatus(ok) = %v, %v", st, err)
	}
	shed := AppendResponse(nil, &SketchResponse{Status: StatusOverloaded, Detail: "later"})
	if st, err := PeekStatus(shed); err != nil || st != StatusOverloaded {
		t.Errorf("PeekStatus(shed) = %v, %v", st, err)
	}
	if _, err := PeekStatus(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("PeekStatus(empty): err = %v, want ErrMalformed", err)
	}
	if _, err := PeekStatus([]byte{255}); !errors.Is(err, ErrMalformed) {
		t.Errorf("PeekStatus(unknown status): err = %v, want ErrMalformed", err)
	}

	bp := AppendBatchResponse(nil, []SketchResponse{
		{Status: StatusOverloaded, Detail: "shed"},
		{Status: StatusOK, Ahat: dense.NewMatrix(1, 1)},
	})
	items, err := SplitBatchPayload(bp)
	if err != nil || items.Count != 2 {
		t.Fatalf("SplitBatchPayload: %d items, err = %v", items.Count, err)
	}
	for i, want := range []Status{StatusOverloaded, StatusOK} {
		if st, err := PeekStatus(items.Next()); err != nil || st != want {
			t.Errorf("item %d status = %v, %v; want %v", i, st, err, want)
		}
	}
	if _, err := SplitBatchPayload(bp[:3]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated batch: err = %v, want ErrMalformed", err)
	}
}

func TestDecodeRejectsBrokenPayloads(t *testing.T) {
	a := testCSCs()["uniform-200x40"]
	base := AppendCSC(nil, a)
	// Claimed nnz larger than the bytes back.
	huge := append([]byte{}, base...)
	le.PutUint64(huge[16:], 1<<40)
	if _, err := DecodeCSC(huge); !errors.Is(err, ErrMalformed) {
		t.Errorf("huge nnz: %v", err)
	}
	// Trailing garbage.
	if _, err := DecodeCSC(append(append([]byte{}, base...), 0)); !errors.Is(err, ErrMalformed) {
		t.Error("trailing byte accepted")
	}
	// Unsorted row indices.
	bad := a.Clone()
	if bad.NNZ() >= 2 {
		// Find a column with >= 2 entries and swap its first two rows.
		for j := 0; j < bad.N; j++ {
			lo, hi := bad.ColPtr[j], bad.ColPtr[j+1]
			if hi-lo >= 2 {
				bad.RowIdx[lo], bad.RowIdx[lo+1] = bad.RowIdx[lo+1], bad.RowIdx[lo]
				break
			}
		}
		if _, err := DecodeCSC(AppendCSC(nil, bad)); !errors.Is(err, ErrMalformed) {
			t.Errorf("unsorted rows: %v", err)
		}
	}
	// Out-of-domain request enums.
	req := AppendRequest(nil, 8, core.Options{}, a)
	for _, off := range []int{16, 24, 32, 64} { // algorithm, dist, source, sched
		mut := append([]byte{}, req...)
		le.PutUint64(mut[off:], uint64(int64(99)))
		if _, err := DecodeRequest(mut); !errors.Is(err, ErrMalformed) {
			t.Errorf("enum at offset %d: %v", off, err)
		}
	}
	// Distribution one past the last member of the sparse family must be
	// rejected as malformed, never fall back to a default distribution.
	distMut := append([]byte{}, req...)
	le.PutUint64(distMut[24:], uint64(int64(rng.CountSketch)+1))
	if _, err := DecodeRequest(distMut); !errors.Is(err, ErrMalformed) {
		t.Errorf("dist past CountSketch: %v", err)
	}
	// ... while every in-domain distribution decodes.
	for d := rng.Uniform11; d <= rng.CountSketch; d++ {
		ok := append([]byte{}, req...)
		le.PutUint64(ok[24:], uint64(int64(d)))
		if _, err := DecodeRequest(ok); err != nil {
			t.Errorf("dist %v rejected: %v", d, err)
		}
	}
	// Negative or absurd sparsity is out of domain.
	for _, sp := range []int64{-1, int64(MaxDim) + 1} {
		mut := append([]byte{}, req...)
		le.PutUint64(mut[72:], uint64(sp))
		if _, err := DecodeRequest(mut); !errors.Is(err, ErrMalformed) {
			t.Errorf("sparsity %d: %v", sp, err)
		}
	}
	// Unknown response status.
	if _, err := DecodeResponse([]byte{200, 0, 0, 0, 0}); !errors.Is(err, ErrMalformed) {
		t.Error("unknown status accepted")
	}
}

func TestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want Status
	}{
		{nil, StatusOK},
		{service.ErrOverloaded, StatusOverloaded},
		{service.ErrClosed, StatusClosed},
		{core.ErrNilMatrix, StatusNilMatrix},
		{core.ErrInvalidSketchSize, StatusInvalidSketchSize},
		{core.ErrInvalidMatrix, StatusInvalidMatrix},
		{core.ErrBadOptions, StatusBadOptions},
		{core.ErrPlanClosed, StatusPlanClosed},
		{context.DeadlineExceeded, StatusDeadlineExceeded},
		{context.Canceled, StatusCanceled},
		{ErrMalformed, StatusMalformed},
		{ErrTooLarge, StatusMalformed},
		{errors.New("novel failure"), StatusInternal},
	}
	for _, c := range cases {
		if got := StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %v, want %v", c.err, got, c.want)
		}
		if c.err == nil {
			continue
		}
		// The wire roundtrip preserves errors.Is classification (except
		// unclassified errors, which collapse to ErrInternal by design).
		back := c.want.Err("detail")
		if c.want == StatusInternal {
			if !errors.Is(back, ErrInternal) {
				t.Errorf("internal status does not unwrap to ErrInternal")
			}
			continue
		}
		if c.want == StatusMalformed {
			if !errors.Is(back, ErrMalformed) {
				t.Errorf("malformed status does not unwrap to ErrMalformed")
			}
			continue
		}
		if !errors.Is(back, c.err) {
			t.Errorf("status %v does not unwrap to %v", c.want, c.err)
		}
	}
	if StatusOK.Err("") != nil {
		t.Error("StatusOK.Err != nil")
	}
	if !StatusOverloaded.Retryable() {
		t.Error("overloaded must be retryable")
	}
	for _, s := range []Status{StatusInvalidMatrix, StatusBadOptions, StatusClosed, StatusDeadlineExceeded, StatusMalformed, StatusInternal} {
		if s.Retryable() {
			t.Errorf("%v must not be retryable", s)
		}
	}
}
