package wire

import (
	"math"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
)

// SketchRequest is the decoded form of a MsgSketchRequest payload: one
// sketch Â = S·A, where S is described by (D, Opts) and regenerated
// server-side — the matrix S itself never crosses the wire.
type SketchRequest struct {
	D    int
	Opts core.Options
	A    *sparse.CSC
}

// SketchResponse is the decoded form of a MsgSketchResponse payload. A
// non-OK Status carries only Detail; StatusOK carries Â and the execute
// Stats (WorkerBusy, a plan-owned buffer, does not cross the wire).
type SketchResponse struct {
	Status Status
	Detail string
	Stats  core.Stats
	Ahat   *dense.Matrix
}

// Err converts the response outcome into an error (nil for StatusOK),
// unwrapping to the canonical sentinel of the status.
func (r *SketchResponse) Err() error { return r.Status.Err(r.Detail) }

// cscPayloadSize returns the encoded size of a's CSC payload.
func cscPayloadSize(a *sparse.CSC) int {
	return 24 + 8*(a.N+1) + 16*len(a.Val)
}

// AppendCSC appends a's CSC payload to dst. The matrix must be
// structurally valid (DecodeCSC* re-validates on the way in).
func AppendCSC(dst []byte, a *sparse.CSC) []byte {
	dst = appendU64(dst, uint64(a.M))
	dst = appendU64(dst, uint64(a.N))
	dst = appendU64(dst, uint64(len(a.Val)))
	for _, p := range a.ColPtr {
		dst = appendU64(dst, uint64(p))
	}
	for _, r := range a.RowIdx {
		dst = appendU64(dst, uint64(r))
	}
	for _, v := range a.Val {
		dst = appendU64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendDense appends m's dense payload to dst: dims then the column-major
// values. Views with a loose stride encode identically to their tight copy.
func AppendDense(dst []byte, m *dense.Matrix) []byte {
	dst = appendU64(dst, uint64(m.Rows))
	dst = appendU64(dst, uint64(m.Cols))
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// requestFixedSize is the fixed-width prefix of a request payload before
// the embedded CSC: d, seed, 8 option integers, rngCost, flag byte.
const requestFixedSize = 8 + 8 + 8*8 + 8 + 1

// optsWireSize is the encoded size of a core.Options block: seed, 8 option
// integers, rngCost, flag byte. Shared by the sketch requests (after their
// leading d) and the solve request (which derives d from gamma instead).
const optsWireSize = 8 + 8*8 + 8 + 1

// appendSketchOpts appends the core.Options block shared by every request
// payload.
func appendSketchOpts(dst []byte, opts core.Options) []byte {
	dst = appendU64(dst, opts.Seed)
	dst = appendU64(dst, uint64(int64(opts.Algorithm)))
	dst = appendU64(dst, uint64(int64(opts.Dist)))
	dst = appendU64(dst, uint64(int64(opts.Source)))
	dst = appendU64(dst, uint64(int64(opts.BlockD)))
	dst = appendU64(dst, uint64(int64(opts.BlockN)))
	dst = appendU64(dst, uint64(int64(opts.Workers)))
	dst = appendU64(dst, uint64(int64(opts.Sched)))
	dst = appendU64(dst, uint64(int64(opts.Sparsity)))
	dst = appendU64(dst, math.Float64bits(opts.RNGCost))
	var flags byte
	if opts.Timed {
		flags |= 1
	}
	if opts.TuneBlockN {
		flags |= 2
	}
	return append(dst, flags)
}

// AppendRequest appends the request payload for (d, opts, a) to dst.
func AppendRequest(dst []byte, d int, opts core.Options, a *sparse.CSC) []byte {
	dst = appendU64(dst, uint64(d))
	dst = appendSketchOpts(dst, opts)
	return AppendCSC(dst, a)
}

// AppendResponse appends r's response payload to dst.
func AppendResponse(dst []byte, r *SketchResponse) []byte {
	if r.Status != StatusOK {
		return AppendError(dst, r.Status, r.Detail)
	}
	dst = appendStats(append(dst, byte(StatusOK)), r.Stats)
	return AppendDense(dst, r.Ahat)
}

// statsWireSize is the encoded size of the execute Stats an OK sketch or
// shard response carries: six integers and the imbalance.
const statsWireSize = 6*8 + 8

// appendStats appends the execute Stats block of an OK response.
func appendStats(dst []byte, st core.Stats) []byte {
	dst = appendU64(dst, uint64(st.Samples))
	dst = appendU64(dst, uint64(st.Flops))
	dst = appendU64(dst, uint64(st.SampleTime.Nanoseconds()))
	dst = appendU64(dst, uint64(st.ConvertTime.Nanoseconds()))
	dst = appendU64(dst, uint64(st.Total.Nanoseconds()))
	dst = appendU64(dst, uint64(st.Steals))
	return appendU64(dst, math.Float64bits(st.Imbalance))
}

// appendBatch appends the envelope every batch payload shares: the item
// count, then each item as item appends it, prefixed by its u32 length.
func appendBatch(dst []byte, n int, item func(dst []byte, i int) []byte) []byte {
	dst = appendU32(dst, uint32(n))
	for i := 0; i < n; i++ {
		mark := len(dst)
		dst = item(appendU32(dst, 0), i) // length backpatched below
		putU32(dst[mark:mark+4], uint32(len(dst)-mark-4))
	}
	return dst
}

// AppendBatchRequest appends a batch-request payload: count, then each
// request length-prefixed.
func AppendBatchRequest(dst []byte, reqs []SketchRequest) []byte {
	return appendBatch(dst, len(reqs), func(dst []byte, i int) []byte {
		return AppendRequest(dst, reqs[i].D, reqs[i].Opts, reqs[i].A)
	})
}

// AppendBatchResponse appends a batch-response payload: count, then each
// response length-prefixed.
func AppendBatchResponse(dst []byte, rs []SketchResponse) []byte {
	return appendBatch(dst, len(rs), func(dst []byte, i int) []byte { return AppendResponse(dst, &rs[i]) })
}

// EncodeRequestFrame returns a complete single-request frame, ready for an
// HTTP body. A matrix too large for the 32-bit frame length fails with
// ErrTooLarge.
func EncodeRequestFrame(d int, opts core.Options, a *sparse.CSC) ([]byte, error) {
	payload := AppendRequest(make([]byte, 0, requestFixedSize+cscPayloadSize(a)), d, opts, a)
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), MsgSketchRequest, payload)
}

// EncodeBatchRequestFrame returns a complete batch-request frame. A batch
// whose total payload exceeds the 32-bit frame length fails with
// ErrTooLarge (per-item u32 lengths are covered by the same check: an
// oversized item makes the whole payload oversized).
func EncodeBatchRequestFrame(reqs []SketchRequest) ([]byte, error) {
	payload := AppendBatchRequest(nil, reqs)
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), MsgBatchRequest, payload)
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
