package wire

import (
	"fmt"
	"strconv"
	"strings"

	"sketchsp/internal/core"
	"sketchsp/internal/sparse"
)

// By-reference messages (version 3): the content-addressed leg of the
// protocol. A client uploads a matrix once (MsgMatrixPut), then asks for
// sketches by the 32-byte fingerprint (MsgSketchRef) — repeat traffic drops
// from O(nnz(A)) to O(1) bytes per request — and streams updates as sparse
// deltas (MsgMatrixDelta) that the server folds into stored state by
// linearity, Â(A+ΔA) = Â(A) + S·ΔA.
//
// Payload layouts:
//
//	MsgMatrixPut:    CSC payload (exactly; answered with MsgMatrixInfo)
//
//	MsgMatrixInfo:   u8 status
//	                 status == StatusOK:  u64 m | u64 n | u64 nnz |
//	                                      u64 hash | i64 bytes | u8 created
//	                 status != StatusOK:  the error form (wire.go)
//
//	MsgSketchRef:    request fixed prefix (d, seed, options, flags — byte-
//	                 identical to MsgSketchRequest's) | u64 m | u64 n |
//	                 u64 nnz | u64 hash   (exact length; answered with
//	                 MsgSketchResponse)
//
//	MsgMatrixDelta:  u64 m | u64 n | u64 nnz | u64 hash (the BASE matrix's
//	                 fingerprint) | CSC payload of ΔA (same shape as the
//	                 base; answered with MsgMatrixInfo for A+ΔA)
//
// MsgMatrixInfo shares the error form of every response, so server-side
// failures emitted before the frame type is known still decode on every
// path.

// fingerprintWireSize is the encoded size of a sparse.Fingerprint:
// m, n, nnz, hash as four u64 words.
const fingerprintWireSize = 4 * 8

// SketchRefRequest is the decoded form of a MsgSketchRef payload: a sketch
// request whose matrix is named by fingerprint instead of embedded.
type SketchRefRequest struct {
	D    int
	Opts core.Options
	Fp   sparse.Fingerprint
}

// MatrixInfo is the decoded form of a MsgMatrixInfo payload: the outcome of
// a matrix put or delta. A non-OK Status carries only Detail; StatusOK
// carries the stored matrix's identity, footprint, and whether the
// operation inserted it (Created=false: already resident).
type MatrixInfo struct {
	Status  Status
	Detail  string
	Fp      sparse.Fingerprint
	Bytes   int64
	Created bool
}

// Err converts the outcome into an error (nil for StatusOK), unwrapping to
// the canonical sentinel of the status.
func (r *MatrixInfo) Err() error { return r.Status.Err(r.Detail) }

// MatrixDelta is the decoded form of a MsgMatrixDelta payload: a sparse
// update ΔA addressed to the stored matrix with fingerprint Fp.
type MatrixDelta struct {
	Fp    sparse.Fingerprint
	Delta *sparse.CSC
}

// appendFingerprint appends fp's wire form to dst.
func appendFingerprint(dst []byte, fp sparse.Fingerprint) []byte {
	dst = le.AppendUint64(dst, uint64(int64(fp.M)))
	dst = le.AppendUint64(dst, uint64(int64(fp.N)))
	dst = le.AppendUint64(dst, uint64(int64(fp.NNZ)))
	return le.AppendUint64(dst, fp.Hash)
}

// decodeFingerprint parses fingerprintWireSize bytes (caller guarantees the
// length) and rejects out-of-domain dimensions, mirroring the CSC decoder's
// guards so a reference can never name a shape an upload could not have.
func decodeFingerprint(payload []byte) (sparse.Fingerprint, error) {
	m := le.Uint64(payload[0:])
	n := le.Uint64(payload[8:])
	nnz := le.Uint64(payload[16:])
	hash := le.Uint64(payload[24:])
	if m > MaxDim || n > MaxDim {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint dims %dx%d exceed MaxDim", ErrMalformed, m, n)
	}
	// The same ceiling as every other dimension: a fingerprint naming more
	// stored entries than MaxDim could never match a decodable upload.
	if nnz > MaxDim {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint nnz %d out of domain", ErrMalformed, nnz)
	}
	return sparse.Fingerprint{M: int(m), N: int(n), NNZ: int(nnz), Hash: hash}, nil
}

// AppendMatrixPut appends a matrix-put payload (the CSC payload verbatim).
func AppendMatrixPut(dst []byte, a *sparse.CSC) []byte {
	return AppendCSC(dst, a)
}

// DecodeMatrixPut decodes a matrix-put payload into a fresh matrix.
func DecodeMatrixPut(payload []byte) (*sparse.CSC, error) {
	return DecodeCSC(payload)
}

// matrixInfoOKSize is the size of an OK matrix-info payload: status,
// fingerprint, bytes, created flag.
const matrixInfoOKSize = 1 + fingerprintWireSize + 8 + 1

// MatrixInfoSize returns the encoded size of r's matrix-info payload.
func MatrixInfoSize(r *MatrixInfo) int {
	if r.Status != StatusOK {
		return ErrorSize(r.Detail)
	}
	return matrixInfoOKSize
}

// AppendMatrixInfo appends r's matrix-info payload to dst.
func AppendMatrixInfo(dst []byte, r *MatrixInfo) []byte {
	if r.Status != StatusOK {
		return AppendError(dst, r.Status, r.Detail)
	}
	dst = appendFingerprint(append(dst, byte(StatusOK)), r.Fp)
	dst = le.AppendUint64(dst, uint64(r.Bytes))
	if r.Created {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeMatrixInfo decodes a matrix-info payload.
func DecodeMatrixInfo(payload []byte) (*MatrixInfo, error) {
	st, detail, err := DecodeError(payload)
	if err != nil {
		return nil, err
	}
	r := &MatrixInfo{Status: st, Detail: detail}
	if st != StatusOK {
		return r, nil
	}
	if len(payload) != matrixInfoOKSize {
		return nil, fmt.Errorf("%w: matrix-info payload %d bytes, want %d", ErrMalformed, len(payload), matrixInfoOKSize)
	}
	fp, err := decodeFingerprint(payload[1:])
	if err != nil {
		return nil, err
	}
	bytes := int64(le.Uint64(payload[1+fingerprintWireSize:]))
	if bytes < 0 {
		return nil, fmt.Errorf("%w: negative matrix-info bytes", ErrMalformed)
	}
	switch payload[matrixInfoOKSize-1] {
	case 0:
	case 1:
		r.Created = true
	default:
		return nil, fmt.Errorf("%w: matrix-info created flag %d", ErrMalformed, payload[matrixInfoOKSize-1])
	}
	r.Fp = fp
	r.Bytes = bytes
	return r, nil
}

// AppendSketchRef appends a sketch-by-reference payload to dst: the same
// fixed (d, options) prefix as AppendRequest, then the fingerprint in place
// of the matrix.
func AppendSketchRef(dst []byte, r *SketchRefRequest) []byte {
	dst = appendSketchOpts(le.AppendUint64(dst, uint64(r.D)), r.Opts)
	return appendFingerprint(dst, r.Fp)
}

// DecodeSketchRef decodes a sketch-by-reference payload.
func DecodeSketchRef(payload []byte) (*SketchRefRequest, error) {
	if len(payload) != SketchRefSize {
		return nil, fmt.Errorf("%w: sketch-ref payload %d bytes, want %d", ErrMalformed, len(payload), SketchRefSize)
	}
	d, opts, err := decodeRequestFixed(payload)
	if err != nil {
		return nil, err
	}
	fp, err := decodeFingerprint(payload[requestFixedSize:])
	if err != nil {
		return nil, err
	}
	return &SketchRefRequest{D: d, Opts: opts, Fp: fp}, nil
}

// MatrixDeltaSize returns the encoded size of r's matrix-delta payload.
func MatrixDeltaSize(r *MatrixDelta) int { return fingerprintWireSize + CSCSize(r.Delta) }

// AppendMatrixDelta appends r's matrix-delta payload to dst.
func AppendMatrixDelta(dst []byte, r *MatrixDelta) []byte {
	dst = appendFingerprint(dst, r.Fp)
	return AppendCSC(dst, r.Delta)
}

// DecodeMatrixDelta decodes a matrix-delta payload. The delta matrix is
// freshly allocated — deltas are applied asynchronously to stored state, so
// they must never alias pooled request scratch.
func DecodeMatrixDelta(payload []byte) (*MatrixDelta, error) {
	if len(payload) < fingerprintWireSize {
		return nil, fmt.Errorf("%w: matrix-delta payload %d bytes, want >= %d", ErrMalformed, len(payload), fingerprintWireSize)
	}
	fp, err := decodeFingerprint(payload)
	if err != nil {
		return nil, err
	}
	delta, err := DecodeCSC(payload[fingerprintWireSize:])
	if err != nil {
		return nil, err
	}
	if delta.M != fp.M || delta.N != fp.N {
		return nil, fmt.Errorf("%w: delta shape %dx%d does not match base fingerprint %dx%d",
			ErrMalformed, delta.M, delta.N, fp.M, fp.N)
	}
	return &MatrixDelta{Fp: fp, Delta: delta}, nil
}

// EncodeMatrixPutFrame returns a complete matrix-put frame.
func EncodeMatrixPutFrame(a *sparse.CSC) ([]byte, error) {
	return AppendFrame(nil, MsgMatrixPut, CSCSize(a), func(dst []byte) []byte { return AppendMatrixPut(dst, a) })
}

// SketchRefSize is the size of a sketch-by-reference payload: the fixed
// request prefix and the fingerprint.
const SketchRefSize = requestFixedSize + fingerprintWireSize

// SketchRefWireSize is the size of a complete sketch-by-reference frame:
// header + fixed request prefix + fingerprint, independent of nnz(A). The
// coordinator's traffic accounting and the bench replay both quote it.
const SketchRefWireSize = HeaderSize + SketchRefSize

// EncodeSketchRefFrame returns a complete sketch-by-reference frame — the
// whole request is SketchRefWireSize bytes regardless of the matrix size,
// which is the entire point of the by-reference protocol.
func EncodeSketchRefFrame(r *SketchRefRequest) ([]byte, error) {
	return AppendFrame(nil, MsgSketchRef, SketchRefSize, func(dst []byte) []byte { return AppendSketchRef(dst, r) })
}

// EncodeMatrixDeltaFrame returns a complete matrix-delta frame.
func EncodeMatrixDeltaFrame(r *MatrixDelta) ([]byte, error) {
	return AppendFrame(nil, MsgMatrixDelta, MatrixDeltaSize(r), func(dst []byte) []byte { return AppendMatrixDelta(dst, r) })
}

// FormatFingerprint renders fp for a URL path segment:
// "m-n-nnz-hash16hex" (e.g. "4096-512-81920-9f0c…"). ParseFingerprint is
// the strict inverse; the PATCH handler cross-checks the path fingerprint
// against the frame's.
func FormatFingerprint(fp sparse.Fingerprint) string {
	return fmt.Sprintf("%d-%d-%d-%016x", fp.M, fp.N, fp.NNZ, fp.Hash)
}

// ParseFingerprint parses FormatFingerprint's form. Rejections are
// ErrMalformed, like every other decoder in the package.
func ParseFingerprint(s string) (sparse.Fingerprint, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: want m-n-nnz-hash", ErrMalformed, s)
	}
	m, err1 := strconv.ParseInt(parts[0], 10, 64)
	n, err2 := strconv.ParseInt(parts[1], 10, 64)
	nnz, err3 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: bad integer field", ErrMalformed, s)
	}
	if len(parts[3]) != 16 {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: hash must be 16 hex digits", ErrMalformed, s)
	}
	hash, err := strconv.ParseUint(parts[3], 16, 64)
	if err != nil {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: bad hash", ErrMalformed, s)
	}
	if m < 0 || m > MaxDim || n < 0 || n > MaxDim || nnz < 0 {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: dims out of domain", ErrMalformed, s)
	}
	return sparse.Fingerprint{M: int(m), N: int(n), NNZ: int(nnz), Hash: hash}, nil
}
