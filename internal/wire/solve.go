package wire

import (
	"fmt"
	"math"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/jobs"
	"sketchsp/internal/solver"
	"sketchsp/internal/sparse"
)

// Version-4 solve messages: MsgSolveRequest carries one least-squares or
// RandSVD solve, MsgSolveResponse its outcome, MsgJobStatus the state of
// an async job. Payload layouts (all integers little-endian):
//
// Solve request (MsgSolveRequest):
//
//	u8 method | u8 flags (bit0 async, bit1 by-ref) |
//	f64 gamma | f64 atol | f64 svdDrop |
//	u64 maxIters | u64 rank | u64 oversample | u64 powerIters |
//	core.Options block (seed, 8 option i64s, rngCost, flag byte — the
//	same optsWireSize layout as sketch requests; no d field, the server
//	derives d from gamma) |
//	u64 lenB | lenB×f64 b |
//	by-ref: 32-byte fingerprint (to end)   inline: CSC payload (to end)
//
// Solve response (MsgSolveResponse):
//
//	u8 status
//	status != StatusOK: the error form (wire.go)
//	status == StatusOK:
//	  u8 kind (0 solution, 1 factors) | u8 method |
//	  u8 infoFlags (bit0 converged, bit1 precond-cached) |
//	  i64 sketchNS | i64 factorNS | i64 iterNS | i64 totalNS |
//	  i64 iters | i64 memoryBytes | f64 residual |
//	  kind 0: u64 len | len×f64 x (to end)
//	  kind 1: u64 k | k×f64 sigma | u32 uLen | dense U | dense V (to end)
//
// Job status (MsgJobStatus):
//
//	u8 status
//	status != StatusOK: the error form (wire.go)
//	status == StatusOK:
//	  u8 state | i64 iters | f64 resid | u32 idLen | id bytes |
//	  u8 hasResult | (hasResult == 1: solve-response payload, to end)
//
// All three decoders are total, strict and exact, like v1–v3.

// SolveMethod is the wire-level solve-method enum. It is narrower than
// solver.Method on purpose: MethodDirect is a CLI baseline, not a serving
// mode, so it has no wire value.
type SolveMethod uint8

// The five request modes of POST /v1/solve.
const (
	// SolveSAPQR: sketch-and-precondition least squares, QR preconditioner.
	SolveSAPQR SolveMethod = 0
	// SolveSAPSVD: sketch-and-precondition, SVD preconditioner.
	SolveSAPSVD SolveMethod = 1
	// SolveMinNorm: minimum-norm solution of a wide consistent system.
	SolveMinNorm SolveMethod = 2
	// SolveLSQRD: the diagonal-preconditioner LSQR baseline.
	SolveLSQRD SolveMethod = 3
	// SolveRandSVD: rank-k randomized SVD; the response carries factors.
	SolveRandSVD SolveMethod = 4
)

// maxSolveMethod is the last defined method; decoders reject above it.
const maxSolveMethod = SolveRandSVD

// String implements fmt.Stringer for SolveMethod.
func (m SolveMethod) String() string {
	switch m {
	case SolveSAPQR:
		return "sap-qr"
	case SolveSAPSVD:
		return "sap-svd"
	case SolveMinNorm:
		return "min-norm"
	case SolveLSQRD:
		return "lsqr-d"
	case SolveRandSVD:
		return "rand-svd"
	default:
		return fmt.Sprintf("SolveMethod(%d)", uint8(m))
	}
}

// SolverMethod maps the wire enum onto the solver package's enum.
func (m SolveMethod) SolverMethod() solver.Method {
	switch m {
	case SolveSAPQR:
		return solver.MethodSAPQR
	case SolveSAPSVD:
		return solver.MethodSAPSVD
	case SolveMinNorm:
		return solver.MethodMinNorm
	case SolveLSQRD:
		return solver.MethodLSQRD
	default:
		return solver.MethodRandSVD
	}
}

// SolveMethodOf maps a solver.Method onto the wire enum; ok is false for
// methods with no wire form (MethodDirect).
func SolveMethodOf(m solver.Method) (SolveMethod, bool) {
	switch m {
	case solver.MethodSAPQR:
		return SolveSAPQR, true
	case solver.MethodSAPSVD:
		return SolveSAPSVD, true
	case solver.MethodMinNorm:
		return SolveMinNorm, true
	case solver.MethodLSQRD:
		return SolveLSQRD, true
	case solver.MethodRandSVD:
		return SolveRandSVD, true
	default:
		return 0, false
	}
}

// SolveRequest is the decoded form of a MsgSolveRequest payload.
type SolveRequest struct {
	Method SolveMethod
	// Async forces job handling even for a small problem; large problems
	// become jobs regardless (the server's size threshold).
	Async bool
	// Gamma, Atol, SVDDrop, MaxIters are the solver.Options knobs (0 =
	// solver default).
	Gamma    float64
	Atol     float64
	SVDDrop  float64
	MaxIters int
	// Rank, Oversample, PowerIters configure SolveRandSVD (ignored
	// otherwise).
	Rank       int
	Oversample int
	PowerIters int
	// Opts carries the sketch configuration; the sketch size d is derived
	// server-side from Gamma, never sent.
	Opts core.Options
	// B is the right-hand side (empty for SolveRandSVD).
	B []float64
	// Exactly one matrix identity: A inline, or Fp naming a stored matrix
	// when ByRef is set.
	A     *sparse.CSC
	ByRef bool
	Fp    sparse.Fingerprint
}

// solveFixedSize is the fixed-width prefix before the RHS values.
const solveFixedSize = 1 + 1 + 3*8 + 4*8 + optsWireSize + 8

// SolveRequestSize returns the encoded size of r's payload.
func SolveRequestSize(r *SolveRequest) int {
	n := solveFixedSize + 8*len(r.B)
	if r.ByRef {
		return n + fingerprintWireSize
	}
	return n + CSCSize(r.A)
}

// appendF64s appends vs as IEEE-754 bits, growing dst at most once.
func appendF64s(dst []byte, vs []float64) []byte {
	dst, b := extend(dst, 8*len(vs))
	putF64s(b, vs)
	return dst
}

// AppendSolveRequest appends r's payload to dst.
func AppendSolveRequest(dst []byte, r *SolveRequest) []byte {
	dst = append(dst, byte(r.Method))
	var flags byte
	if r.Async {
		flags |= 1
	}
	if r.ByRef {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = le.AppendUint64(dst, math.Float64bits(r.Gamma))
	dst = le.AppendUint64(dst, math.Float64bits(r.Atol))
	dst = le.AppendUint64(dst, math.Float64bits(r.SVDDrop))
	dst = le.AppendUint64(dst, uint64(r.MaxIters))
	dst = le.AppendUint64(dst, uint64(r.Rank))
	dst = le.AppendUint64(dst, uint64(r.Oversample))
	dst = le.AppendUint64(dst, uint64(r.PowerIters))
	dst = appendSketchOpts(dst, r.Opts)
	dst = appendF64s(le.AppendUint64(dst, uint64(len(r.B))), r.B)
	if r.ByRef {
		return appendFingerprint(dst, r.Fp)
	}
	return AppendCSC(dst, r.A)
}

// DecodeSolveRequest decodes a solve-request payload.
func DecodeSolveRequest(payload []byte) (*SolveRequest, error) {
	if len(payload) < solveFixedSize {
		return nil, fmt.Errorf("%w: solve request %d bytes, want >= %d", ErrMalformed, len(payload), solveFixedSize)
	}
	r := new(SolveRequest)
	method := payload[0]
	if SolveMethod(method) > maxSolveMethod {
		return nil, fmt.Errorf("%w: solve method %d out of domain", ErrMalformed, method)
	}
	r.Method = SolveMethod(method)
	flags := payload[1]
	if flags&^3 != 0 {
		return nil, fmt.Errorf("%w: unknown solve flags %#x", ErrMalformed, flags)
	}
	r.Async = flags&1 != 0
	r.ByRef = flags&2 != 0
	r.Gamma = math.Float64frombits(le.Uint64(payload[2:]))
	r.Atol = math.Float64frombits(le.Uint64(payload[10:]))
	r.SVDDrop = math.Float64frombits(le.Uint64(payload[18:]))
	maxIters := le.Uint64(payload[26:])
	rank := le.Uint64(payload[34:])
	oversample := le.Uint64(payload[42:])
	powerIters := le.Uint64(payload[50:])
	switch {
	case math.IsNaN(r.Gamma) || math.IsInf(r.Gamma, 0) || r.Gamma < 0 || r.Gamma > MaxDim:
		return nil, fmt.Errorf("%w: gamma out of domain", ErrMalformed)
	case math.IsNaN(r.Atol) || math.IsInf(r.Atol, 0) || r.Atol < 0:
		return nil, fmt.Errorf("%w: atol out of domain", ErrMalformed)
	case math.IsNaN(r.SVDDrop) || r.SVDDrop < 0 || r.SVDDrop >= 1:
		return nil, fmt.Errorf("%w: svdDrop out of domain", ErrMalformed)
	case maxIters > MaxDim || rank > MaxDim || oversample > MaxDim || powerIters > MaxDim:
		return nil, fmt.Errorf("%w: iteration/rank bounds out of domain", ErrMalformed)
	}
	r.MaxIters = int(maxIters)
	r.Rank = int(rank)
	r.Oversample = int(oversample)
	r.PowerIters = int(powerIters)
	opts, err := decodeSketchOpts(payload[58:])
	if err != nil {
		return nil, err
	}
	r.Opts = opts
	lenB := le.Uint64(payload[solveFixedSize-8:])
	rest := payload[solveFixedSize:]
	if lenB > uint64(len(rest))/8 {
		return nil, fmt.Errorf("%w: RHS length %d inconsistent with %d payload bytes", ErrMalformed, lenB, len(rest))
	}
	r.B = make([]float64, lenB)
	rest = getF64s(r.B, rest)
	if r.ByRef {
		if len(rest) != fingerprintWireSize {
			return nil, fmt.Errorf("%w: solve fingerprint %d bytes, want %d", ErrMalformed, len(rest), fingerprintWireSize)
		}
		fp, err := decodeFingerprint(rest)
		if err != nil {
			return nil, err
		}
		r.Fp = fp
		return r, nil
	}
	a, err := DecodeCSC(rest)
	if err != nil {
		return nil, err
	}
	r.A = a
	return r, nil
}

// AppendSolveRequestFrame appends a complete solve-request frame to dst.
func AppendSolveRequestFrame(dst []byte, r *SolveRequest) ([]byte, error) {
	return AppendFrame(dst, MsgSolveRequest, SolveRequestSize(r), func(dst []byte) []byte { return AppendSolveRequest(dst, r) })
}

// SolveInfo is the wire form of solver.Info plus serving-side annotations.
type SolveInfo struct {
	Method        SolveMethod
	Converged     bool
	PrecondCached bool
	// SketchNS/FactorNS/IterNS/TotalNS are solver.Info's stage timings in
	// nanoseconds. For a preconditioner-cache hit, sketch and factor
	// report the original build cost.
	SketchNS, FactorNS, IterNS, TotalNS int64
	Iters                               int
	MemoryBytes                         int64
	// Residual is the achieved backward error ‖Aᵀr‖/(‖A‖_F·‖r‖)
	// (solver.ErrorMetric) of the returned solution; 0 for factor
	// responses.
	Residual float64
}

// RSVDFactors is the factor payload of a SolveRandSVD response.
type RSVDFactors struct {
	// U (m×k) and V (n×k) have orthonormal columns; Sigma holds the k
	// approximate singular values.
	U, V  *dense.Matrix
	Sigma []float64
}

// SolveResponse is the decoded form of a MsgSolveResponse payload: an
// error status with detail, or an OK outcome carrying Info plus exactly
// one of X (least-squares solution) or Factors (RandSVD).
type SolveResponse struct {
	Status  Status
	Detail  string
	Info    SolveInfo
	X       []float64
	Factors *RSVDFactors
}

// Err converts the response outcome into an error (nil for StatusOK).
func (r *SolveResponse) Err() error { return r.Status.Err(r.Detail) }

const solveInfoSize = 1 + 1 + 1 + 6*8 + 8 // kind, method, flags, 6 i64, residual

// SolveResponseSize returns the encoded size of r's payload.
func SolveResponseSize(r *SolveResponse) int {
	if r.Status != StatusOK {
		return ErrorSize(r.Detail)
	}
	n := 1 + solveInfoSize + 8
	if f := r.Factors; f != nil {
		return n + 8*len(f.Sigma) + 4 + DenseSize(f.U) + DenseSize(f.V)
	}
	return n + 8*len(r.X)
}

// AppendSolveResponse appends r's payload to dst.
func AppendSolveResponse(dst []byte, r *SolveResponse) []byte {
	if r.Status != StatusOK {
		return AppendError(dst, r.Status, r.Detail)
	}
	dst = append(dst, byte(StatusOK))
	var kind byte
	if r.Factors != nil {
		kind = 1
	}
	dst = append(dst, kind, byte(r.Info.Method))
	var flags byte
	if r.Info.Converged {
		flags |= 1
	}
	if r.Info.PrecondCached {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = le.AppendUint64(dst, uint64(r.Info.SketchNS))
	dst = le.AppendUint64(dst, uint64(r.Info.FactorNS))
	dst = le.AppendUint64(dst, uint64(r.Info.IterNS))
	dst = le.AppendUint64(dst, uint64(r.Info.TotalNS))
	dst = le.AppendUint64(dst, uint64(int64(r.Info.Iters)))
	dst = le.AppendUint64(dst, uint64(r.Info.MemoryBytes))
	dst = le.AppendUint64(dst, math.Float64bits(r.Info.Residual))
	if kind == 0 {
		return appendF64s(le.AppendUint64(dst, uint64(len(r.X))), r.X)
	}
	f := r.Factors
	dst = appendF64s(le.AppendUint64(dst, uint64(len(f.Sigma))), f.Sigma)
	dst = le.AppendUint32(dst, uint32(DenseSize(f.U)))
	dst = AppendDense(dst, f.U)
	return AppendDense(dst, f.V)
}

// DecodeSolveResponse decodes a solve-response payload.
func DecodeSolveResponse(payload []byte) (*SolveResponse, error) {
	st, detail, err := DecodeError(payload)
	if err != nil {
		return nil, err
	}
	r := &SolveResponse{Status: st, Detail: detail}
	if st != StatusOK {
		return r, nil
	}
	if len(payload) < 1+solveInfoSize {
		return nil, fmt.Errorf("%w: truncated solve info", ErrMalformed)
	}
	kind := payload[1]
	if kind > 1 {
		return nil, fmt.Errorf("%w: solve payload kind %d out of domain", ErrMalformed, kind)
	}
	method := payload[2]
	if SolveMethod(method) > maxSolveMethod {
		return nil, fmt.Errorf("%w: solve method %d out of domain", ErrMalformed, method)
	}
	r.Info.Method = SolveMethod(method)
	flags := payload[3]
	if flags&^3 != 0 {
		return nil, fmt.Errorf("%w: unknown solve info flags %#x", ErrMalformed, flags)
	}
	r.Info.Converged = flags&1 != 0
	r.Info.PrecondCached = flags&2 != 0
	r.Info.SketchNS = int64(le.Uint64(payload[4:]))
	r.Info.FactorNS = int64(le.Uint64(payload[12:]))
	r.Info.IterNS = int64(le.Uint64(payload[20:]))
	r.Info.TotalNS = int64(le.Uint64(payload[28:]))
	iters := int64(le.Uint64(payload[36:]))
	r.Info.MemoryBytes = int64(le.Uint64(payload[44:]))
	r.Info.Residual = math.Float64frombits(le.Uint64(payload[52:]))
	if r.Info.SketchNS < 0 || r.Info.FactorNS < 0 || r.Info.IterNS < 0 ||
		r.Info.TotalNS < 0 || iters < 0 || iters > MaxDim || r.Info.MemoryBytes < 0 {
		return nil, fmt.Errorf("%w: negative solve info fields", ErrMalformed)
	}
	if math.IsNaN(r.Info.Residual) || math.IsInf(r.Info.Residual, 0) || r.Info.Residual < 0 {
		return nil, fmt.Errorf("%w: non-finite or negative residual", ErrMalformed)
	}
	r.Info.Iters = int(iters)
	rest := payload[1+solveInfoSize:]
	if kind == 0 {
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated solution length", ErrMalformed)
		}
		n := le.Uint64(rest[0:])
		if n != uint64(len(rest)-8)/8 || 8+8*n != uint64(len(rest)) {
			return nil, fmt.Errorf("%w: solution length %d inconsistent with %d bytes", ErrMalformed, n, len(rest))
		}
		r.X = make([]float64, n)
		getF64s(r.X, rest[8:])
		return r, nil
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: truncated factor payload", ErrMalformed)
	}
	k := le.Uint64(rest[0:])
	if k > MaxDim || k > uint64(len(rest)-8)/8 {
		return nil, fmt.Errorf("%w: factor count %d inconsistent with %d bytes", ErrMalformed, k, len(rest))
	}
	f := &RSVDFactors{Sigma: make([]float64, k)}
	rest = getF64s(f.Sigma, rest[8:])
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated factor split", ErrMalformed)
	}
	uLen := uint64(le.Uint32(rest[0:4]))
	rest = rest[4:]
	if uLen > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: U factor claims %d of %d bytes", ErrMalformed, uLen, len(rest))
	}
	f.U = new(dense.Matrix)
	if err := DecodeDenseInto(f.U, rest[:uLen]); err != nil {
		return nil, err
	}
	f.V = new(dense.Matrix)
	if err := DecodeDenseInto(f.V, rest[uLen:]); err != nil {
		return nil, err
	}
	if f.U.Cols != int(k) || f.V.Cols != int(k) {
		return nil, fmt.Errorf("%w: factor ranks U=%d V=%d, want %d", ErrMalformed, f.U.Cols, f.V.Cols, k)
	}
	r.Factors = f
	return r, nil
}

// JobStatus is the decoded form of a MsgJobStatus payload: the envelope
// Status covers the jobs-API outcome itself (StatusJobNotFound for an
// unknown ID), while State/Iters/Resid describe the job. Result embeds the
// job's solve response once the job is terminal and its result is still
// retained.
type JobStatus struct {
	Status Status
	Detail string
	ID     string
	State  jobs.State
	Iters  int
	Resid  float64
	Result *SolveResponse
}

// Err converts the envelope outcome into an error (nil for StatusOK).
func (j *JobStatus) Err() error { return j.Status.Err(j.Detail) }

// maxJobIDLen bounds the wire form of a job ID; the manager's IDs are 32
// hex characters.
const maxJobIDLen = 64

// JobStatusSize returns the encoded size of j's payload.
func JobStatusSize(j *JobStatus) int {
	if j.Status != StatusOK {
		return ErrorSize(j.Detail)
	}
	n := 1 + 1 + 8 + 8 + 4 + len(j.ID) + 1
	if j.Result != nil {
		n += SolveResponseSize(j.Result)
	}
	return n
}

// AppendJobStatus appends j's payload to dst.
func AppendJobStatus(dst []byte, j *JobStatus) []byte {
	if j.Status != StatusOK {
		return AppendError(dst, j.Status, j.Detail)
	}
	dst = append(dst, byte(StatusOK))
	dst = append(dst, byte(j.State))
	dst = le.AppendUint64(dst, uint64(int64(j.Iters)))
	dst = le.AppendUint64(dst, math.Float64bits(j.Resid))
	dst = le.AppendUint32(dst, uint32(len(j.ID)))
	dst = append(dst, j.ID...)
	if j.Result == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return AppendSolveResponse(dst, j.Result)
}

// DecodeJobStatus decodes a job-status payload.
func DecodeJobStatus(payload []byte) (*JobStatus, error) {
	st, detail, err := DecodeError(payload)
	if err != nil {
		return nil, err
	}
	j := &JobStatus{Status: st, Detail: detail}
	if st != StatusOK {
		return j, nil
	}
	const fixed = 1 + 1 + 8 + 8 + 4 // status, state, iters, resid, idLen
	if len(payload) < fixed {
		return nil, fmt.Errorf("%w: truncated job status", ErrMalformed)
	}
	state := payload[1]
	if jobs.State(state) > jobs.StateCancelled {
		return nil, fmt.Errorf("%w: job state %d out of domain", ErrMalformed, state)
	}
	j.State = jobs.State(state)
	iters := int64(le.Uint64(payload[2:]))
	if iters < 0 || iters > MaxDim {
		return nil, fmt.Errorf("%w: job iterations out of domain", ErrMalformed)
	}
	j.Iters = int(iters)
	j.Resid = math.Float64frombits(le.Uint64(payload[10:]))
	if math.IsNaN(j.Resid) || math.IsInf(j.Resid, 0) || j.Resid < 0 {
		return nil, fmt.Errorf("%w: non-finite or negative job residual", ErrMalformed)
	}
	idLen := uint64(le.Uint32(payload[18:22]))
	rest := payload[22:]
	if idLen == 0 || idLen > maxJobIDLen || idLen > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: job ID length %d out of domain", ErrMalformed, idLen)
	}
	id := rest[:idLen]
	for _, c := range id {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c == '-') {
			return nil, fmt.Errorf("%w: job ID contains byte %#x", ErrMalformed, c)
		}
	}
	j.ID = string(id)
	rest = rest[idLen:]
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: truncated job result flag", ErrMalformed)
	}
	switch rest[0] {
	case 0:
		if len(rest) != 1 {
			return nil, fmt.Errorf("%w: %d trailing bytes after job status", ErrMalformed, len(rest)-1)
		}
		return j, nil
	case 1:
		res, err := DecodeSolveResponse(rest[1:])
		if err != nil {
			return nil, err
		}
		j.Result = res
		return j, nil
	default:
		return nil, fmt.Errorf("%w: job result flag %d out of domain", ErrMalformed, rest[0])
	}
}

// AppendJobStatusFrame appends a complete job-status frame to dst.
func AppendJobStatusFrame(dst []byte, j *JobStatus) ([]byte, error) {
	return AppendFrame(dst, MsgJobStatus, JobStatusSize(j), func(dst []byte) []byte { return AppendJobStatus(dst, j) })
}

// SolveInfoOf converts a solver.Info into its wire form, attaching the
// achieved residual and cache annotation the serving layer computed.
func SolveInfoOf(info solver.Info, residual float64, precondCached bool) (SolveInfo, bool) {
	m, ok := SolveMethodOf(info.Method)
	if !ok {
		return SolveInfo{}, false
	}
	return SolveInfo{
		Method:        m,
		Converged:     info.Converged,
		PrecondCached: precondCached,
		SketchNS:      info.SketchTime.Nanoseconds(),
		FactorNS:      info.FactorTime.Nanoseconds(),
		IterNS:        info.IterTime.Nanoseconds(),
		TotalNS:       info.Total.Nanoseconds(),
		Iters:         info.Iters,
		MemoryBytes:   info.MemoryBytes,
		Residual:      residual,
	}, true
}
