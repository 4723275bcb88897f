package wire

import (
	"fmt"
	"math"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// MaxDim bounds any declared matrix dimension (2^40 rows or columns). The
// arrays a decoder allocates are all bounded by the payload length itself,
// but the CSC row count m is not length-bound (a 10⁹×3 matrix with five
// nonzeros is a legitimately tiny message), so it gets an explicit ceiling.
const MaxDim = 1 << 40

// Decoding is *total* and *strict*: every length is cross-checked against
// the actual payload size before anything is allocated (a corrupted count
// cannot demand memory the bytes don't back), every enum is checked against
// its domain (a corrupted Options can never reach rng.NewSource, which
// panics on unknown kinds), and the embedded CSC is fully re-validated
// (sorted unique in-range row indices) so the kernels downstream never see
// a structurally broken matrix. Payloads must also be *exact*: trailing
// garbage is rejected, which makes decode(encode(x)) == x the only fixed
// point and lets the fuzzer compare re-encoded bytes directly.

// DecodeCSC decodes a CSC payload into a freshly allocated matrix.
func DecodeCSC(payload []byte) (*sparse.CSC, error) {
	a := new(sparse.CSC)
	if err := DecodeCSCInto(a, payload); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeCSCInto decodes a CSC payload into dst, reusing the capacity of
// dst's slices — the hot-path form the server's request scratch pool uses.
func DecodeCSCInto(dst *sparse.CSC, payload []byte) error {
	if len(payload) < 24 {
		return fmt.Errorf("%w: CSC payload %d bytes, want >= 24", ErrMalformed, len(payload))
	}
	m := le.Uint64(payload[0:])
	n := le.Uint64(payload[8:])
	nnz := le.Uint64(payload[16:])
	rem := uint64(len(payload) - 24)
	if m > MaxDim || n > MaxDim {
		return fmt.Errorf("%w: CSC dims %dx%d exceed MaxDim", ErrMalformed, m, n)
	}
	// Every ColPtr entry costs 8 bytes and every stored entry 16, so any
	// consistent (n, nnz) is bounded by the payload before we multiply.
	if n+1 > rem/8 || nnz > rem/16 {
		return fmt.Errorf("%w: CSC n=%d nnz=%d inconsistent with %d payload bytes", ErrMalformed, n, nnz, rem)
	}
	if need := 8*(n+1) + 16*nnz; need != rem {
		return fmt.Errorf("%w: CSC payload %d bytes, want %d", ErrMalformed, rem, need)
	}
	dst.M, dst.N = int(m), int(n)
	dst.ColPtr = intSliceInto(dst.ColPtr, int(n)+1)
	dst.RowIdx = intSliceInto(dst.RowIdx, int(nnz))
	dst.Val = f64SliceInto(dst.Val, int(nnz))
	getF64s(dst.Val, getInts(dst.RowIdx, getInts(dst.ColPtr, payload[24:])))
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nil
}

// DecodeDense decodes a dense payload into a freshly allocated matrix.
func DecodeDense(payload []byte) (*dense.Matrix, error) {
	m := new(dense.Matrix)
	if err := DecodeDenseInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeDenseInto decodes a dense payload into dst, reusing Data capacity.
// The decoded matrix always has a tight stride.
func DecodeDenseInto(dst *dense.Matrix, payload []byte) error {
	if len(payload) < 16 {
		return fmt.Errorf("%w: dense payload %d bytes, want >= 16", ErrMalformed, len(payload))
	}
	rows := le.Uint64(payload[0:])
	cols := le.Uint64(payload[8:])
	rem := uint64(len(payload) - 16)
	if rows > MaxDim || cols > MaxDim {
		return fmt.Errorf("%w: dense dims %dx%d exceed MaxDim", ErrMalformed, rows, cols)
	}
	elems := rem / 8
	if rows != 0 && cols != 0 && (rows > elems || cols > elems/rows) {
		return fmt.Errorf("%w: dense %dx%d inconsistent with %d payload bytes", ErrMalformed, rows, cols, rem)
	}
	if need := rows * cols * 8; need != rem {
		return fmt.Errorf("%w: dense payload %d bytes, want %d", ErrMalformed, rem, need)
	}
	dst.Rows, dst.Cols = int(rows), int(cols)
	dst.Stride = int(rows)
	dst.Data = f64SliceInto(dst.Data, int(rows)*int(cols))
	getF64s(dst.Data, payload[16:])
	return nil
}

// DecodeRequest decodes a single-request payload, allocating the matrix.
func DecodeRequest(payload []byte) (SketchRequest, error) {
	var req SketchRequest
	err := DecodeRequestInto(&req, payload)
	return req, err
}

// DecodeRequestInto decodes a single-request payload into dst, reusing
// dst.A's slice capacity when dst.A is non-nil (the server's pooled path).
func DecodeRequestInto(dst *SketchRequest, payload []byte) error {
	if len(payload) < requestFixedSize {
		return fmt.Errorf("%w: request payload %d bytes, want >= %d", ErrMalformed, len(payload), requestFixedSize)
	}
	d, opts, err := decodeRequestFixed(payload)
	if err != nil {
		return err
	}
	dst.D = d
	dst.Opts = opts
	if dst.A == nil {
		dst.A = new(sparse.CSC)
	}
	return DecodeCSCInto(dst.A, payload[requestFixedSize:])
}

// decodeRequestFixed parses the requestFixedSize (d, options) prefix shared
// by MsgSketchRequest and MsgSketchRef payloads. The caller guarantees
// len(payload) >= requestFixedSize.
func decodeRequestFixed(payload []byte) (int, core.Options, error) {
	d := le.Uint64(payload[0:])
	if d > MaxDim {
		return 0, core.Options{}, fmt.Errorf("%w: sketch size %d exceeds MaxDim", ErrMalformed, d)
	}
	opts, err := decodeSketchOpts(payload[8:])
	return int(d), opts, err
}

// decodeSketchOpts parses an optsWireSize core.Options block. The caller
// guarantees len(payload) >= optsWireSize.
func decodeSketchOpts(payload []byte) (core.Options, error) {
	var opts core.Options
	opts.Seed = le.Uint64(payload[0:])
	alg := int64(le.Uint64(payload[8:]))
	dist := int64(le.Uint64(payload[16:]))
	src := int64(le.Uint64(payload[24:]))
	blockD := int64(le.Uint64(payload[32:]))
	blockN := int64(le.Uint64(payload[40:]))
	workers := int64(le.Uint64(payload[48:]))
	sched := int64(le.Uint64(payload[56:]))
	sparsity := int64(le.Uint64(payload[64:]))
	rngCost := math.Float64frombits(le.Uint64(payload[72:]))
	flags := payload[80]

	// Enum domains. These guards are load-bearing, not cosmetic: an
	// out-of-domain Source or Dist would panic inside rng.NewSource /
	// the sampler's fill switch, which a server facing untrusted bytes
	// cannot afford. The Dist ceiling is rng.CountSketch, the last member
	// of the sparse sketch family — an unknown enum value is rejected
	// here, never silently mapped to a default distribution.
	switch {
	case alg < int64(core.AlgAuto) || alg > int64(core.Alg4):
		return opts, fmt.Errorf("%w: algorithm %d out of domain", ErrMalformed, alg)
	case dist < int64(rng.Uniform11) || dist > int64(rng.CountSketch):
		return opts, fmt.Errorf("%w: distribution %d out of domain", ErrMalformed, dist)
	case src < int64(rng.SourceBatchXoshiro) || src > int64(rng.SourcePhilox):
		return opts, fmt.Errorf("%w: rng source %d out of domain", ErrMalformed, src)
	case sched < int64(core.SchedWeighted) || sched > int64(core.SchedUniform):
		return opts, fmt.Errorf("%w: scheduler %d out of domain", ErrMalformed, sched)
	case blockD < 0 || blockD > MaxDim || blockN < 0 || blockN > MaxDim:
		return opts, fmt.Errorf("%w: block sizes (%d, %d) out of domain", ErrMalformed, blockD, blockN)
	case workers < 0 || workers > 1<<20:
		return opts, fmt.Errorf("%w: workers %d out of domain", ErrMalformed, workers)
	case sparsity < 0 || sparsity > MaxDim:
		return opts, fmt.Errorf("%w: sparsity %d out of domain", ErrMalformed, sparsity)
	case math.IsNaN(rngCost) || math.IsInf(rngCost, 0) || rngCost < 0:
		return opts, fmt.Errorf("%w: non-finite or negative RNGCost", ErrMalformed)
	case flags&^3 != 0:
		return opts, fmt.Errorf("%w: unknown request flags %#x", ErrMalformed, flags)
	}
	opts.Algorithm = core.Algorithm(alg)
	opts.Dist = rng.Distribution(dist)
	opts.Source = rng.SourceKind(src)
	opts.BlockD = int(blockD)
	opts.BlockN = int(blockN)
	opts.Workers = int(workers)
	opts.Sched = core.Scheduler(sched)
	opts.Sparsity = int(sparsity)
	opts.RNGCost = rngCost
	opts.Timed = flags&1 != 0
	opts.TuneBlockN = flags&2 != 0
	return opts, nil
}

// DecodeResponse decodes a single-response payload.
func DecodeResponse(payload []byte) (*SketchResponse, error) {
	r := new(SketchResponse)
	if err := DecodeResponseInto(r, payload); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeResponseInto decodes a single-response payload into dst, reusing
// dst.Ahat's Data capacity when dst.Ahat is non-nil.
func DecodeResponseInto(dst *SketchResponse, payload []byte) error {
	st, detail, err := DecodeError(payload)
	if err != nil {
		return err
	}
	dst.Status, dst.Detail = st, detail
	if st != StatusOK {
		dst.Stats, dst.Ahat = core.Stats{}, nil
		return nil
	}
	if dst.Stats, err = decodeStats(payload[1:]); err != nil {
		return err
	}
	if dst.Ahat == nil {
		dst.Ahat = new(dense.Matrix)
	}
	return DecodeDenseInto(dst.Ahat, payload[1+statsWireSize:])
}

// decodeStats decodes the execute Stats block at the head of payload,
// rejecting negative counts and a non-finite or negative imbalance.
func decodeStats(payload []byte) (core.Stats, error) {
	if len(payload) < statsWireSize {
		return core.Stats{}, fmt.Errorf("%w: truncated response stats", ErrMalformed)
	}
	var v [6]int64
	for i := range v {
		if v[i] = int64(le.Uint64(payload[8*i:])); v[i] < 0 {
			return core.Stats{}, fmt.Errorf("%w: negative response stats", ErrMalformed)
		}
	}
	imb := math.Float64frombits(le.Uint64(payload[48:]))
	if math.IsNaN(imb) || math.IsInf(imb, 0) || imb < 0 {
		return core.Stats{}, fmt.Errorf("%w: non-finite or negative imbalance", ErrMalformed)
	}
	return core.Stats{
		Samples:     v[0],
		Flops:       v[1],
		SampleTime:  time.Duration(v[2]),
		ConvertTime: time.Duration(v[3]),
		Total:       time.Duration(v[4]),
		Steals:      v[5],
		Imbalance:   imb,
	}, nil
}

// DecodeBatchRequest decodes a batch-request payload.
func DecodeBatchRequest(payload []byte) ([]SketchRequest, error) {
	return decodeBatch(payload, DecodeRequestInto)
}

// DecodeBatchResponse decodes a batch-response payload.
func DecodeBatchResponse(payload []byte) ([]SketchResponse, error) {
	return decodeBatch(payload, DecodeResponseInto)
}

// decodeBatch decodes every item of a batch payload with decode.
func decodeBatch[T any](payload []byte, decode func(*T, []byte) error) ([]T, error) {
	items, err := SplitBatchPayload(payload)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(items))
	for i, item := range items {
		if err := decode(&out[i], item); err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return out, nil
}

// SplitBatchPayload parses the count-prefixed item list of a batch payload
// into per-item views (no copying; they alias payload) without decoding
// the items, and enforces exact consumption.
func SplitBatchPayload(payload []byte) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: batch payload %d bytes, want >= 4", ErrMalformed, len(payload))
	}
	count := uint64(le.Uint32(payload))
	rest := payload[4:]
	// Each item costs at least its own 4-byte length prefix.
	if count > uint64(len(rest))/4 {
		return nil, fmt.Errorf("%w: batch count %d inconsistent with %d payload bytes", ErrMalformed, count, len(rest))
	}
	items := make([][]byte, count)
	for i := range items {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated batch item %d", ErrMalformed, i)
		}
		n := uint64(le.Uint32(rest))
		rest = rest[4:]
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: batch item %d claims %d of %d bytes", ErrMalformed, i, n, len(rest))
		}
		items[i] = rest[:n]
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrMalformed, len(rest))
	}
	return items, nil
}

func intSliceInto(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func f64SliceInto(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
