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

// CSCSize returns the encoded size of a's CSC payload (also the
// MsgMatrixPut payload).
func CSCSize(a *sparse.CSC) int {
	return 24 + 8*(a.N+1) + 16*len(a.Val)
}

// AppendCSC appends a's CSC payload to dst, growing it at most once. The
// matrix must be structurally valid (DecodeCSC* re-validates on the way
// in).
func AppendCSC(dst []byte, a *sparse.CSC) []byte {
	dst, b := extend(dst, CSCSize(a))
	le.PutUint64(b[0:], uint64(a.M))
	le.PutUint64(b[8:], uint64(a.N))
	le.PutUint64(b[16:], uint64(len(a.Val)))
	b = putInts(b[24:], a.ColPtr)
	b = putInts(b, a.RowIdx)
	putF64s(b, a.Val)
	return dst
}

// DenseSize returns the encoded size of m's dense payload.
func DenseSize(m *dense.Matrix) int {
	return 16 + 8*m.Rows*m.Cols
}

// AppendDense appends m's dense payload to dst, growing it at most once:
// dims then the column-major values. Views with a loose stride encode
// identically to their tight copy.
func AppendDense(dst []byte, m *dense.Matrix) []byte {
	dst, b := extend(dst, DenseSize(m))
	le.PutUint64(b[0:], uint64(m.Rows))
	le.PutUint64(b[8:], uint64(m.Cols))
	b = b[16:]
	if m.Stride == m.Rows {
		putF64s(b, m.Data[:m.Rows*m.Cols])
		return dst
	}
	for j := 0; j < m.Cols; j++ {
		b = putF64s(b, m.Col(j))
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
	dst = le.AppendUint64(dst, opts.Seed)
	dst = le.AppendUint64(dst, uint64(int64(opts.Algorithm)))
	dst = le.AppendUint64(dst, uint64(int64(opts.Dist)))
	dst = le.AppendUint64(dst, uint64(int64(opts.Source)))
	dst = le.AppendUint64(dst, uint64(int64(opts.BlockD)))
	dst = le.AppendUint64(dst, uint64(int64(opts.BlockN)))
	dst = le.AppendUint64(dst, uint64(int64(opts.Workers)))
	dst = le.AppendUint64(dst, uint64(int64(opts.Sched)))
	dst = le.AppendUint64(dst, uint64(int64(opts.Sparsity)))
	dst = le.AppendUint64(dst, math.Float64bits(opts.RNGCost))
	var flags byte
	if opts.Timed {
		flags |= 1
	}
	if opts.TuneBlockN {
		flags |= 2
	}
	return append(dst, flags)
}

// RequestSize returns the encoded size of a single-request payload over a.
func RequestSize(a *sparse.CSC) int { return requestFixedSize + CSCSize(a) }

// AppendRequest appends the request payload for (d, opts, a) to dst.
func AppendRequest(dst []byte, d int, opts core.Options, a *sparse.CSC) []byte {
	dst = le.AppendUint64(dst, uint64(d))
	dst = appendSketchOpts(dst, opts)
	return AppendCSC(dst, a)
}

// ResponseSize returns the encoded size of r's response payload.
func ResponseSize(r *SketchResponse) int {
	if r.Status != StatusOK {
		return ErrorSize(r.Detail)
	}
	return 1 + statsWireSize + DenseSize(r.Ahat)
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
	dst = le.AppendUint64(dst, uint64(st.Samples))
	dst = le.AppendUint64(dst, uint64(st.Flops))
	dst = le.AppendUint64(dst, uint64(st.SampleTime.Nanoseconds()))
	dst = le.AppendUint64(dst, uint64(st.ConvertTime.Nanoseconds()))
	dst = le.AppendUint64(dst, uint64(st.Total.Nanoseconds()))
	dst = le.AppendUint64(dst, uint64(st.Steals))
	return le.AppendUint64(dst, math.Float64bits(st.Imbalance))
}

// appendBatch appends the envelope every batch payload shares: the item
// count, then each item as item appends it, prefixed by its u32 length.
func appendBatch(dst []byte, n int, item func(dst []byte, i int) []byte) []byte {
	dst = le.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		mark := len(dst)
		dst = item(le.AppendUint32(dst, 0), i) // length backpatched below
		le.PutUint32(dst[mark:mark+4], uint32(len(dst)-mark-4))
	}
	return dst
}

// batchSize returns the encoded size of a batch payload whose items have
// the sizes size reports.
func batchSize[T any](items []T, size func(*T) int) int {
	n := 4
	for i := range items {
		n += 4 + size(&items[i])
	}
	return n
}

// BatchRequestSize returns the encoded size of a batch-request payload.
func BatchRequestSize(reqs []SketchRequest) int {
	return batchSize(reqs, func(r *SketchRequest) int { return RequestSize(r.A) })
}

// BatchResponseSize returns the encoded size of a batch-response payload.
func BatchResponseSize(rs []SketchResponse) int { return batchSize(rs, ResponseSize) }

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

// AppendRequestFrame appends a complete single-request frame, ready for an
// HTTP body, to dst, growing it at most once, to its exact size. A matrix
// too large for the 32-bit frame length fails with ErrTooLarge.
func AppendRequestFrame(dst []byte, d int, opts core.Options, a *sparse.CSC) ([]byte, error) {
	return AppendFrame(dst, MsgSketchRequest, RequestSize(a), func(dst []byte) []byte {
		return AppendRequest(dst, d, opts, a)
	})
}

// AppendBatchRequestFrame appends a complete batch-request frame to dst. A
// batch whose total payload exceeds the 32-bit frame length fails with
// ErrTooLarge (per-item u32 lengths are covered by the same check: an
// oversized item makes the whole payload oversized).
func AppendBatchRequestFrame(dst []byte, reqs []SketchRequest) ([]byte, error) {
	return AppendFrame(dst, MsgBatchRequest, BatchRequestSize(reqs), func(dst []byte) []byte {
		return AppendBatchRequest(dst, reqs)
	})
}
