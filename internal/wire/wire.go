// Package wire is the versioned binary codec of the network serving layer:
// it moves sparse.CSC inputs, dense.Matrix sketches, sketch requests and
// responses between internal/client and internal/server without ever putting
// the random matrix S on the wire — the request carries the seed and
// distribution, and the server regenerates S on the fly, so the traffic per
// sketch is O(nnz(A) + d·n) instead of O(d·m) (the same memory-bus argument
// the paper makes, applied to the network).
//
// # Frame layout
//
// Every message is one length-prefixed frame (all integers little-endian):
//
//	offset  size  field
//	0       3     magic "SKW"
//	3       1     version (currently 4)
//	4       1     message type (MsgType)
//	5       1     flags (must be 0 in version 4)
//	6       2     reserved (must be 0)
//	8       4     payload length (uint32)
//	12      ...   payload
//
// # Payload layouts
//
// CSC (type MsgCSC, and embedded in requests):
//
//	u64 m | u64 n | u64 nnz | (n+1)×u64 ColPtr | nnz×u64 RowIdx |
//	nnz×u64 Val (IEEE-754 bits)
//
// Dense (type MsgDense, and embedded in responses):
//
//	u64 rows | u64 cols | rows·cols×u64 column-major values (IEEE-754 bits)
//
// Sketch request (MsgSketchRequest):
//
//	u64 d | u64 seed | i64 algorithm | i64 dist | i64 source |
//	i64 blockD | i64 blockN | i64 workers | i64 sched | i64 sparsity |
//	f64 rngCost | u8 flags (bit0 Timed, bit1 TuneBlockN) |
//	CSC payload (to end of frame)
//
// (version 2 inserted the sparse-sketch-family i64 sparsity field after
// sched; version-1 frames are rejected by the version check, never
// misparsed.)
//
// Sketch response (MsgSketchResponse):
//
//	u8 status
//	status == StatusOK:  i64 samples | i64 flops | i64 sampleNS |
//	                     i64 convertNS | i64 totalNS | i64 steals |
//	                     f64 imbalance | dense payload (to end of frame)
//	status != StatusOK:  the error form (below)
//
// Batch request/response (MsgBatchRequest / MsgBatchResponse):
//
//	u32 count | count × (u32 len | single request/response payload)
//
// By-reference messages (version 3, ref.go): MsgMatrixPut uploads a CSC
// into the server's content-addressed store, MsgSketchRef asks for a sketch
// by 32-byte fingerprint instead of shipping the matrix, MsgMatrixDelta
// applies a sparse ΔA to a stored matrix, and MsgMatrixInfo answers the put
// and delta messages with the (possibly new) stored identity.
//
// Solve messages (version 4, solve.go): MsgSolveRequest carries a
// least-squares / RandSVD solve (method, gamma/tolerance/rank options, RHS
// vector, and either an inline CSC or a stored fingerprint),
// MsgSolveResponse answers with the solution vector or low-rank factors
// plus the solver's Info measurements, and MsgJobStatus reports an async
// job's lifecycle state, progress, and — once terminal — its embedded
// result.
//
// Shard batch messages (shardbatch.go): MsgShardBatchRequest carries the
// column shards of one sketch bound for one worker (the coordinator's
// per-peer fan-out; a lone shard is a batch of one), answered index-aligned
// by MsgShardBatchResponse. They are the only shard frames; the items use
// the ShardRequest/ShardResponse layouts of shard.go.
//
// # Error taxonomy
//
// Statuses are the wire form of the typed errors the lower layers already
// expose: decode maps a Status back onto the same sentinels
// (core.ErrInvalidMatrix, service.ErrOverloaded, ...) via StatusError, so
// errors.Is works identically in-process and across the network. Only
// StatusOverloaded is retryable; invalid-input statuses never are.
//
// Decoding is total: arbitrary byte mutations are rejected with
// ErrMalformed (or ErrTooLarge), never a panic — FuzzWireRoundtrip pins
// this, and the server depends on it to face untrusted bodies.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sketchsp/internal/core"
	"sketchsp/internal/jobs"
	"sketchsp/internal/service"
	"sketchsp/internal/store"
)

// Version is the frame format version this package encodes and accepts.
// Version 2 added the request sparsity field (sparse sketch family);
// version 3 added the by-reference messages (matrix put / sketch-by-ref /
// delta) and StatusNotFound; version 4 added the solve messages
// (solve-request / solve-response / job-status) and StatusJobNotFound.
// Old frames are rejected by the version check, never misparsed.
const Version = 4

// HeaderSize is the fixed frame-header length preceding every payload.
const HeaderSize = 12

// DefaultMaxPayload bounds a frame's payload when the caller passes
// maxPayload <= 0: 1 GiB, far above any benchmarked matrix but low enough
// that a corrupt length field cannot demand an absurd allocation.
const DefaultMaxPayload = 1 << 30

// MaxPooledBytes caps what the serving layers keep pooled between
// requests: a frame, body, decoded matrix or output that has grown past it
// is dropped when its request ends instead of going back to its pool, so
// one huge request cannot keep its buffers resident. At 1 MiB (the
// client's first read allocation for a body of declared length) every
// frame of an ordinary shard fan-out stays pooled.
const MaxPooledBytes = 1 << 20

// MaxFramePayload is the hard encode-side payload ceiling: the header's
// length field is 32 bits, so a larger payload cannot be framed at all.
// Encoders reject it with ErrTooLarge instead of silently wrapping the
// length and desyncing the stream (a batch of several near-1-GiB items can
// legitimately reach this).
const MaxFramePayload = 1<<32 - 1

// MsgType tags what a frame's payload contains.
type MsgType uint8

const (
	// MsgSketchRequest is a single sketch request (d, options, CSC input).
	MsgSketchRequest MsgType = 1
	// MsgSketchResponse is the outcome of a single request.
	MsgSketchResponse MsgType = 2
	// MsgBatchRequest is a count-prefixed sequence of sketch requests.
	MsgBatchRequest MsgType = 3
	// MsgBatchResponse is the index-aligned sequence of responses.
	MsgBatchResponse MsgType = 4
	// MsgCSC is a standalone sparse matrix (tools and tests).
	MsgCSC MsgType = 5
	// MsgDense is a standalone dense matrix (tools and tests).
	MsgDense MsgType = 6
	// Codes 7 and 8 are retired: they carried the single-shard request and
	// response before the shard batch frames (shardbatch.go) became the only
	// shard transport. They are never reused, so a frame from an old
	// coordinator is rejected as an unexpected type instead of misparsed.
	// MsgMatrixPut uploads a CSC matrix into the server's content-addressed
	// store (PUT /v1/matrix); answered with MsgMatrixInfo.
	MsgMatrixPut MsgType = 9
	// MsgMatrixInfo is the outcome of a matrix put or delta: the stored
	// identity (fingerprint, bytes, created flag) or an error status.
	MsgMatrixInfo MsgType = 10
	// MsgSketchRef is a sketch request that names its matrix by fingerprint
	// instead of embedding it; answered with MsgSketchResponse
	// (StatusNotFound when the matrix is not resident).
	MsgSketchRef MsgType = 11
	// MsgMatrixDelta applies a sparse delta ΔA to the stored matrix named
	// by its fingerprint (PATCH /v1/matrix/{fp}); answered with
	// MsgMatrixInfo carrying the post-update identity.
	MsgMatrixDelta MsgType = 12
	// MsgSolveRequest is a least-squares or RandSVD solve request
	// (POST /v1/solve); answered with MsgSolveResponse, or MsgJobStatus
	// when the solve is admitted as an async job.
	MsgSolveRequest MsgType = 13
	// MsgSolveResponse is the outcome of a solve: solution vector or
	// low-rank factors plus timing/iteration Info, or an error status.
	MsgSolveResponse MsgType = 14
	// MsgJobStatus reports an async job (GET/DELETE /v1/jobs/{id} and the
	// 202 Accepted answer of POST /v1/solve): lifecycle state, iteration
	// progress, and the embedded solve result once terminal.
	MsgJobStatus MsgType = 15
)

// String implements fmt.Stringer for MsgType.
func (t MsgType) String() string {
	switch t {
	case MsgSketchRequest:
		return "sketch-request"
	case MsgSketchResponse:
		return "sketch-response"
	case MsgBatchRequest:
		return "batch-request"
	case MsgBatchResponse:
		return "batch-response"
	case MsgCSC:
		return "csc"
	case MsgDense:
		return "dense"
	case MsgMatrixPut:
		return "matrix-put"
	case MsgMatrixInfo:
		return "matrix-info"
	case MsgSketchRef:
		return "sketch-ref"
	case MsgMatrixDelta:
		return "matrix-delta"
	case MsgSolveRequest:
		return "solve-request"
	case MsgSolveResponse:
		return "solve-response"
	case MsgJobStatus:
		return "job-status"
	case MsgShardBatchRequest:
		return "shardbatch-request"
	case MsgShardBatchResponse:
		return "shardbatch-response"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Codec-level errors. ErrMalformed covers every structural defect a decoder
// can meet — bad magic, unknown version, truncated payload, inconsistent
// array lengths, out-of-domain enum values — so a server can treat any
// errors.Is(err, ErrMalformed) as "reject with StatusMalformed, HTTP 400".
var (
	// ErrMalformed is returned for bytes that are not a well-formed message.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrTooLarge is returned when a frame's declared payload exceeds the
	// caller's size limit.
	ErrTooLarge = errors.New("wire: message exceeds size limit")
	// ErrInternal is the client-side sentinel for StatusInternal: the
	// server failed in a way it did not classify.
	ErrInternal = errors.New("wire: internal server error")
)

// Status is the typed outcome code of a sketch response. The zero value is
// success; every non-zero code corresponds to exactly one error sentinel of
// the lower layers (see Err), so classification survives the network.
type Status uint8

const (
	// StatusOK: the sketch completed; the response carries Â and Stats.
	StatusOK Status = 0
	// StatusInvalidMatrix: the CSC input was structurally broken
	// (core.ErrInvalidMatrix).
	StatusInvalidMatrix Status = 1
	// StatusInvalidSketchSize: d was not positive (core.ErrInvalidSketchSize).
	StatusInvalidSketchSize Status = 2
	// StatusBadOptions: an Options field was out of domain (core.ErrBadOptions).
	StatusBadOptions Status = 3
	// StatusNilMatrix: the request carried no matrix (core.ErrNilMatrix).
	StatusNilMatrix Status = 4
	// StatusPlanClosed: the plan was released mid-request (core.ErrPlanClosed).
	StatusPlanClosed Status = 5
	// StatusOverloaded: the admission queue was full (service.ErrOverloaded).
	// The only retryable status — the server is healthy but saturated.
	StatusOverloaded Status = 6
	// StatusClosed: the service is shut down or draining (service.ErrClosed).
	StatusClosed Status = 7
	// StatusDeadlineExceeded: the request deadline fired
	// (context.DeadlineExceeded).
	StatusDeadlineExceeded Status = 8
	// StatusCanceled: the request context was canceled (context.Canceled).
	StatusCanceled Status = 9
	// StatusMalformed: the request bytes did not decode (ErrMalformed).
	StatusMalformed Status = 10
	// StatusInternal: an unclassified server-side failure (ErrInternal).
	StatusInternal Status = 11
	// StatusNotFound: the fingerprint named no resident matrix
	// (store.ErrNotFound). Not retryable as-is — resending the same
	// reference finds the same nothing — but curable: the client's
	// 404-then-upload fallback PUTs the matrix and reissues the reference
	// once.
	StatusNotFound Status = 12
	// StatusJobNotFound: the job ID named no resident job record
	// (jobs.ErrNotFound) — it never existed, or its result aged out of the
	// TTL/byte-budgeted retention. Not retryable: the result is gone.
	StatusJobNotFound Status = 13
)

// maxStatus is the last defined status; decoders reject anything above it.
const maxStatus = StatusJobNotFound

// String implements fmt.Stringer for Status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalidMatrix:
		return "invalid-matrix"
	case StatusInvalidSketchSize:
		return "invalid-sketch-size"
	case StatusBadOptions:
		return "bad-options"
	case StatusNilMatrix:
		return "nil-matrix"
	case StatusPlanClosed:
		return "plan-closed"
	case StatusOverloaded:
		return "overloaded"
	case StatusClosed:
		return "closed"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	case StatusCanceled:
		return "canceled"
	case StatusMalformed:
		return "malformed"
	case StatusInternal:
		return "internal"
	case StatusNotFound:
		return "not-found"
	case StatusJobNotFound:
		return "job-not-found"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Retryable reports whether a request that failed with this status may
// succeed if simply retried later. Only overload qualifies: invalid inputs
// stay invalid, and a closed server is draining for good.
func (s Status) Retryable() bool { return s == StatusOverloaded }

// StatusOf classifies an error from the service/core layers into its wire
// status. Unrecognised errors map to StatusInternal — the taxonomy is
// closed, so new failure modes degrade to a non-retryable 500, never to a
// silently wrong retry.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, store.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, jobs.ErrNotFound):
		return StatusJobNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		// The jobs layer's saturation signal rides the same retryable
		// status as admission-queue overload.
		return StatusOverloaded
	case errors.Is(err, service.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, service.ErrClosed):
		return StatusClosed
	case errors.Is(err, core.ErrNilMatrix):
		return StatusNilMatrix
	case errors.Is(err, core.ErrInvalidSketchSize):
		return StatusInvalidSketchSize
	case errors.Is(err, core.ErrInvalidMatrix):
		return StatusInvalidMatrix
	case errors.Is(err, core.ErrBadOptions):
		return StatusBadOptions
	case errors.Is(err, core.ErrPlanClosed):
		return StatusPlanClosed
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	case errors.Is(err, ErrMalformed), errors.Is(err, ErrTooLarge):
		return StatusMalformed
	default:
		return StatusInternal
	}
}

// sentinel returns the error sentinel a non-OK status stands for.
func (s Status) sentinel() error {
	switch s {
	case StatusInvalidMatrix:
		return core.ErrInvalidMatrix
	case StatusInvalidSketchSize:
		return core.ErrInvalidSketchSize
	case StatusBadOptions:
		return core.ErrBadOptions
	case StatusNilMatrix:
		return core.ErrNilMatrix
	case StatusPlanClosed:
		return core.ErrPlanClosed
	case StatusOverloaded:
		return service.ErrOverloaded
	case StatusClosed:
		return service.ErrClosed
	case StatusDeadlineExceeded:
		return context.DeadlineExceeded
	case StatusCanceled:
		return context.Canceled
	case StatusMalformed:
		return ErrMalformed
	case StatusNotFound:
		return store.ErrNotFound
	case StatusJobNotFound:
		return jobs.ErrNotFound
	default:
		return ErrInternal
	}
}

// StatusError is the error a client surfaces for a non-OK response. It
// unwraps to the status's canonical sentinel, so
// errors.Is(err, service.ErrOverloaded) holds across the network exactly as
// it does in-process.
type StatusError struct {
	Code   Status
	Detail string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.Detail == "" {
		return "wire: " + e.Code.String()
	}
	return "wire: " + e.Code.String() + ": " + e.Detail
}

// Unwrap exposes the canonical sentinel for errors.Is chains.
func (e *StatusError) Unwrap() error { return e.Code.sentinel() }

// Err converts a non-OK status (plus optional detail) back into an error;
// StatusOK yields nil.
func (s Status) Err(detail string) error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{Code: s, Detail: detail}
}

// ---- the error form ----
//
// Every response payload whose status is not StatusOK — MsgSketchResponse,
// the shard response item, MsgMatrixInfo, MsgSolveResponse and
// MsgJobStatus — is the same bytes:
//
//	u8 status | u32 detailLen | detailLen bytes of UTF-8 detail
//
// AppendError and DecodeError are its only encoder and decoder, so a
// reader that knows just the status byte (the client's retry peek, a server
// answering before it has decoded anything) handles every response alike.

// ErrorSize returns the encoded size of an error form carrying detail.
func ErrorSize(detail string) int { return 5 + len(detail) }

// AppendError appends the error form of (st, detail) to dst.
func AppendError(dst []byte, st Status, detail string) []byte {
	dst = append(dst, byte(st))
	dst = le.AppendUint32(dst, uint32(len(detail)))
	return append(dst, detail...)
}

// DecodeError reads a response payload's status and, when it is not
// StatusOK, decodes the error form, whose detail must fill the payload
// exactly. A StatusOK payload has no error form: DecodeError returns
// StatusOK and leaves the rest to the response type's own decoder.
func DecodeError(payload []byte) (Status, string, error) {
	st, err := PeekStatus(payload)
	if err != nil || st == StatusOK {
		return st, "", err
	}
	if len(payload) < 5 {
		return 0, "", fmt.Errorf("%w: truncated error response", ErrMalformed)
	}
	if n := uint64(le.Uint32(payload[1:5])); uint64(len(payload)-5) != n {
		return 0, "", fmt.Errorf("%w: error detail %d bytes, want %d", ErrMalformed, len(payload)-5, n)
	}
	return st, string(payload[5:]), nil
}

// PeekStatus reads a response payload's status byte without decoding the
// rest. The client's retry loop classifies responses with it so a
// successful response is not fully decoded twice (the dense Â dominates
// decode cost; the status is one byte).
func PeekStatus(payload []byte) (Status, error) {
	if len(payload) < 1 {
		return 0, fmt.Errorf("%w: empty response payload", ErrMalformed)
	}
	st := Status(payload[0])
	if st > maxStatus {
		return 0, fmt.Errorf("%w: unknown status %d", ErrMalformed, payload[0])
	}
	return st, nil
}

// IsBatch reports whether t is one of the count-prefixed batch messages.
func (t MsgType) IsBatch() bool {
	switch t {
	case MsgBatchRequest, MsgBatchResponse, MsgShardBatchRequest, MsgShardBatchResponse:
		return true
	}
	return false
}

// ErrorPayloadSize returns the encoded size of AppendErrorPayload's answer.
func ErrorPayloadSize(t MsgType, detail string) int {
	if t.IsBatch() {
		return 4 + 4 + ErrorSize(detail)
	}
	return ErrorSize(detail)
}

// AppendErrorPayload appends the error answer of response type t: the
// error form, wrapped as a batch of one item for the batch response types
// so the client's decoder still matches what it sent.
func AppendErrorPayload(dst []byte, t MsgType, st Status, detail string) []byte {
	if t.IsBatch() {
		return appendBatch(dst, 1, func(dst []byte, _ int) []byte { return AppendError(dst, st, detail) })
	}
	return AppendError(dst, st, detail)
}

// ---- frame I/O ----

// le is the byte order of every integer on the wire.
var le = binary.LittleEndian

// extend grows dst by n bytes, reallocating at most once, and returns the
// grown slice together with its n-byte tail for the caller to fill. Under
// AppendFrame the room is already there and nothing is reallocated.
func extend(dst []byte, n int) (grown, tail []byte) {
	l := len(dst)
	if cap(dst)-l < n {
		nd := make([]byte, l, max(l+n, 2*cap(dst)))
		copy(nd, dst)
		dst = nd
	}
	dst = dst[:l+n]
	return dst, dst[l:]
}

// putInts writes vs as u64 words at the head of b and returns the rest.
func putInts(b []byte, vs []int) []byte {
	for i, v := range vs {
		le.PutUint64(b[8*i:], uint64(v))
	}
	return b[8*len(vs):]
}

// putF64s writes vs as IEEE-754 bits at the head of b and returns the rest.
func putF64s(b []byte, vs []float64) []byte {
	for i, v := range vs {
		le.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b[8*len(vs):]
}

// getInts fills dst from the u64 words at the head of b, which the caller
// has sized, and returns the rest.
func getInts(dst []int, b []byte) []byte {
	for i := range dst {
		dst[i] = int(int64(le.Uint64(b[8*i:])))
	}
	return b[8*len(dst):]
}

// getF64s fills dst from the IEEE-754 bits at the head of b, which the
// caller has sized, and returns the rest.
func getF64s(dst []float64, b []byte) []byte {
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
	return b[8*len(dst):]
}

// appendHeader appends the frame header of a t frame whose payload is n
// bytes long.
func appendHeader(dst []byte, t MsgType, n uint32) []byte {
	return le.AppendUint32(append(dst, 'S', 'K', 'W', Version, byte(t), 0, 0, 0), n)
}

// errFrameLimit is the ErrTooLarge of a payload the 32-bit length field
// cannot express.
func errFrameLimit(size uint64) error {
	return fmt.Errorf("%w: payload %d bytes exceeds the %d-byte frame limit", ErrTooLarge, size, uint64(MaxFramePayload))
}

// AppendFrame appends one complete frame of type t to dst and returns the
// extended slice. It is the package's one framing rule: size is the exact
// encoded length of the payload, from the payload type's size function,
// and is checked against MaxFramePayload before anything is allocated;
// dst then grows once, to exactly the header plus size bytes, payload
// appends the payload in place behind the header, and the header's length
// field is filled in last. A size beyond MaxFramePayload fails with
// ErrTooLarge and leaves dst unextended.
func AppendFrame(dst []byte, t MsgType, size int, payload func(dst []byte) []byte) ([]byte, error) {
	if size < 0 || uint64(size) > MaxFramePayload {
		return dst, errFrameLimit(uint64(size))
	}
	if need := HeaderSize + size; cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	mark := len(dst)
	dst = payload(appendHeader(dst, t, 0))
	le.PutUint32(dst[mark+8:], uint32(len(dst)-mark-HeaderSize))
	return dst, nil
}

// SplitFrame parses one frame from buf without copying: the returned
// payload aliases buf, and rest is whatever follows the frame (non-empty
// only in concatenated streams). maxPayload <= 0 selects DefaultMaxPayload.
func SplitFrame(buf []byte, maxPayload int) (t MsgType, payload, rest []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(buf) < HeaderSize {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte buffer shorter than the %d-byte header", ErrMalformed, len(buf), HeaderSize)
	}
	if buf[0] != 'S' || buf[1] != 'K' || buf[2] != 'W' {
		return 0, nil, nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, buf[:3])
	}
	if buf[3] != Version {
		return 0, nil, nil, fmt.Errorf("%w: unsupported version %d", ErrMalformed, buf[3])
	}
	if buf[5] != 0 || buf[6] != 0 || buf[7] != 0 {
		return 0, nil, nil, fmt.Errorf("%w: nonzero reserved header bytes", ErrMalformed)
	}
	n := int64(le.Uint32(buf[8:12]))
	if n > int64(maxPayload) {
		return 0, nil, nil, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, n, maxPayload)
	}
	if int64(len(buf)-HeaderSize) < n {
		return 0, nil, nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrMalformed, len(buf)-HeaderSize, n)
	}
	end := HeaderSize + int(n)
	return MsgType(buf[4]), buf[HeaderSize:end], buf[end:], nil
}

// NoTrailing rejects the rest SplitFrame returns when the buffer must hold
// exactly one frame, as an HTTP body does: a valid frame followed by
// anything is malformed, not a frame plus noise to ignore.
func NoTrailing(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the frame", ErrMalformed, len(rest))
	}
	return nil
}

// WriteMessage writes one frame to w. Like AppendFrame, a payload beyond
// MaxFramePayload fails with ErrTooLarge before anything is written.
func WriteMessage(w io.Writer, t MsgType, payload []byte) error {
	if uint64(len(payload)) > MaxFramePayload {
		return errFrameLimit(uint64(len(payload)))
	}
	var hdr [HeaderSize]byte
	if _, err := w.Write(appendHeader(hdr[:0], t, uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one frame from r, allocating the payload. maxPayload
// <= 0 selects DefaultMaxPayload; a declared length beyond it fails with
// ErrTooLarge before any allocation.
func ReadMessage(r io.Reader, maxPayload int) (MsgType, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: truncated header", ErrMalformed)
		}
		return 0, nil, err
	}
	if hdr[0] != 'S' || hdr[1] != 'K' || hdr[2] != 'W' {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, hdr[:3])
	}
	if hdr[3] != Version {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrMalformed, hdr[3])
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero reserved header bytes", ErrMalformed)
	}
	n := int64(le.Uint32(hdr[8:12]))
	if n > int64(maxPayload) {
		return 0, nil, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrMalformed, err)
	}
	return MsgType(hdr[4]), payload, nil
}
