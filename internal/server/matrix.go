package server

import (
	"fmt"
	"net/http"
	"strings"

	"sketchsp/internal/obs"
	"sketchsp/internal/service"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// This file is the HTTP face of the content-addressed matrix layer
// (DESIGN.md §12):
//
//	PUT   /v1/matrix       wire.MsgMatrixPut body (the CSC payload).
//	                       Uploads A under its content fingerprint;
//	                       responds MsgMatrixInfo (fingerprint, resident
//	                       bytes, created flag). Idempotent by content.
//	PATCH /v1/matrix/{fp}  wire.MsgMatrixDelta body. Applies a sparse ΔA
//	                       to the stored matrix {fp}; responds
//	                       MsgMatrixInfo for the merged matrix's new
//	                       fingerprint. The path fingerprint must equal
//	                       the frame's — a mismatch is 400, never a guess.
//	POST  /v1/sketch       additionally accepts wire.MsgSketchRef: a
//	                       sketch request carrying a 32-byte fingerprint
//	                       instead of the O(nnz) matrix; the response
//	                       frame is the ordinary MsgSketchResponse.
//	                       An unknown fingerprint is StatusNotFound (404);
//	                       the client cures it with an upload and retry.
//
// The handlers require the backend to implement service.RefBackend; a
// plain Backend (no store) answers StatusBadOptions.

// refBackend resolves the by-reference surface, or fails the request.
func (s *Server) refBackend(w http.ResponseWriter, typ wire.MsgType) (service.RefBackend, bool) {
	rb, ok := s.backend.(service.RefBackend)
	if !ok {
		s.met.badRequests.Inc()
		s.writeError(w, typ, wire.StatusBadOptions,
			"backend does not serve content-addressed requests")
	}
	return rb, ok
}

// handleMatrixPut serves PUT /v1/matrix.
func (s *Server) handleMatrixPut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		w.Header().Set("Allow", http.MethodPut)
		s.met.countCode(http.StatusMethodNotAllowed)
		http.Error(w, "PUT only", http.StatusMethodNotAllowed)
		return
	}
	rb, ok := s.refBackend(w, wire.MsgMatrixInfo)
	if !ok {
		return
	}
	sc := s.scratch.Get()
	defer s.putScratch(sc)

	a, ok := decodeFrame(s, sc, w, r, wire.MsgMatrixPut, wire.MsgMatrixInfo, wire.DecodeMatrixPut)
	if !ok {
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusMalformed, err.Error())
		return
	}
	defer cancel()
	info, err := rb.PutMatrix(ctx, a)
	if err != nil {
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusOf(err), err.Error())
		return
	}
	s.writeMatrixInfo(w, sc, info)
}

// handleMatrixPatch serves PATCH /v1/matrix/{fp}.
func (s *Server) handleMatrixPatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPatch {
		w.Header().Set("Allow", http.MethodPatch)
		s.met.countCode(http.StatusMethodNotAllowed)
		http.Error(w, "PATCH only", http.StatusMethodNotAllowed)
		return
	}
	rb, ok := s.refBackend(w, wire.MsgMatrixInfo)
	if !ok {
		return
	}
	pathFp, err := wire.ParseFingerprint(strings.TrimPrefix(r.URL.Path, "/v1/matrix/"))
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusMalformed, err.Error())
		return
	}
	sc := s.scratch.Get()
	defer s.putScratch(sc)

	delta, ok := decodeFrame(s, sc, w, r, wire.MsgMatrixDelta, wire.MsgMatrixInfo, wire.DecodeMatrixDelta)
	if !ok {
		return
	}
	// The URL names the matrix being patched; the frame repeats it so a
	// proxy-rewritten path cannot silently retarget the delta.
	if delta.Fp != pathFp {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusMalformed,
			fmt.Sprintf("path fingerprint %s does not match frame fingerprint %s",
				wire.FormatFingerprint(pathFp), wire.FormatFingerprint(delta.Fp)))
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusMalformed, err.Error())
		return
	}
	defer cancel()
	xsp := obs.StartSpan(s.met.execute)
	info, err := rb.PatchMatrix(ctx, delta.Fp, delta.Delta)
	xsp.End()
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusOf(err), err.Error())
		return
	}
	s.writeMatrixInfo(w, sc, info)
}

// writeMatrixInfo emits the OK MsgMatrixInfo frame for info.
func (s *Server) writeMatrixInfo(w http.ResponseWriter, sc *reqScratch, info store.Info) {
	resp := wire.MatrixInfo{Status: wire.StatusOK, Fp: info.Fp, Bytes: info.Bytes, Created: info.Created}
	esp := obs.StartSpan(s.met.encode)
	out, err := wire.AppendFrame(sc.buf[:0], wire.MsgMatrixInfo, wire.MatrixInfoSize(&resp), func(dst []byte) []byte {
		return wire.AppendMatrixInfo(dst, &resp)
	})
	if err != nil {
		esp.End()
		s.writeError(w, wire.MsgMatrixInfo, wire.StatusInternal, "response too large to frame: "+err.Error())
		return
	}
	sc.buf = out
	httpCode := http.StatusOK
	if info.Created {
		httpCode = http.StatusCreated
	}
	s.writeFrame(w, httpCode, sc.buf)
	esp.End()
}
