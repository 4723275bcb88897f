package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"sketchsp/internal/jobs"
	"sketchsp/internal/obs"
	"sketchsp/internal/service"
	"sketchsp/internal/solver"
	"sketchsp/internal/wire"
)

// This file is the HTTP face of the solver subsystem (DESIGN.md §13):
//
//	POST   /v1/solve      wire.MsgSolveRequest body. Small problems solve
//	                      synchronously and respond MsgSolveResponse;
//	                      requests flagged Async or larger than
//	                      Config.SolveSyncNNZ become jobs: the response is
//	                      202 Accepted with a Location header and a
//	                      MsgJobStatus body naming the job.
//	GET    /v1/jobs/{id}  MsgJobStatus: state, live iteration progress,
//	                      and — once terminal — the embedded solve
//	                      response (the solution for done, the error for
//	                      failed/cancelled). Unknown or expired IDs are
//	                      StatusJobNotFound (404).
//	DELETE /v1/jobs/{id}  cancel: a pending job dies immediately, a
//	                      running one has its context fired and the solver
//	                      observes it between LSQR iterations. Responds
//	                      with the post-cancel MsgJobStatus.
//
// The handlers require the backend to implement service.SolveBackend; a
// plain Backend answers StatusBadOptions. Async decode paths never borrow
// the pooled request scratch: a job outlives its HTTP request, so
// everything it references must be privately owned (DecodeSolveRequest
// allocates fresh slices, making the decoded request safe to retain).

// solveBackend resolves the solver surface, or fails the request.
func (s *Server) solveBackend(w http.ResponseWriter, typ wire.MsgType) (service.SolveBackend, bool) {
	sb, ok := s.backend.(service.SolveBackend)
	if !ok {
		s.met.badRequests.Inc()
		s.writeError(w, typ, wire.StatusBadOptions, "backend does not serve solve requests")
	}
	return sb, ok
}

// handleSolve serves POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.met.countCode(http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sb, ok := s.solveBackend(w, wire.MsgSolveResponse)
	if !ok {
		return
	}
	sc := s.scratch.Get()
	defer s.putScratch(sc)

	req, ok := decodeFrame(s, sc, w, r, wire.MsgSolveRequest, wire.MsgSolveResponse, wire.DecodeSolveRequest)
	if !ok {
		return
	}

	if req.Async || s.solveNNZ(req) > s.solveSyncNNZ() {
		s.serveSolveAsync(w, sb, req)
		return
	}

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgSolveResponse, wire.StatusMalformed, err.Error())
		return
	}
	defer cancel()
	xsp := obs.StartSpan(s.met.execute)
	res, err := sb.Solve(ctx, solveServiceReq(req, nil))
	xsp.End()
	var resp *wire.SolveResponse
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		resp = &wire.SolveResponse{Status: wire.StatusOf(err), Detail: err.Error()}
	} else {
		resp = solveWireResp(res)
	}
	esp := obs.StartSpan(s.met.encode)
	out, err := wire.AppendFrame(sc.buf[:0], wire.MsgSolveResponse, wire.SolveResponseSize(resp), func(dst []byte) []byte {
		return wire.AppendSolveResponse(dst, resp)
	})
	if err != nil {
		esp.End()
		s.writeError(w, wire.MsgSolveResponse, wire.StatusInternal, "response too large to frame: "+err.Error())
		return
	}
	sc.buf = out
	s.writeFrame(w, httpStatus(resp.Status), sc.buf)
	esp.End()
}

// serveSolveAsync submits the decoded request as a job and answers 202
// with the job's initial status. The job resolves by-reference
// fingerprints at execution time — a matrix evicted while the job queues
// fails the job with store.ErrNotFound, it does not fail the submit.
func (s *Server) serveSolveAsync(w http.ResponseWriter, sb service.SolveBackend, req *wire.SolveRequest) {
	jm := s.jobs
	if jm == nil {
		s.writeError(w, wire.MsgJobStatus, wire.StatusBadOptions, "async solve jobs are not enabled")
		return
	}
	id, err := jm.Submit(func(ctx context.Context, progress func(iter int, resid float64)) (any, int64, error) {
		res, err := sb.Solve(ctx, solveServiceReq(req, progress))
		if err != nil {
			return nil, 0, err
		}
		resp := solveWireResp(res)
		return resp, retainedBytes(resp), nil
	})
	if err != nil {
		s.writeError(w, wire.MsgJobStatus, wire.StatusOf(err), err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	js := &wire.JobStatus{Status: wire.StatusOK, ID: id, State: jobs.StatePending}
	frame, _ := wire.AppendJobStatusFrame(nil, js)
	s.writeFrame(w, http.StatusAccepted, frame)
}

// handleJob serves GET and DELETE /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jm := s.jobs
	if jm == nil {
		s.writeError(w, wire.MsgJobStatus, wire.StatusBadOptions, "async solve jobs are not enabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.ContainsRune(id, '/') {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgJobStatus, wire.StatusMalformed, "bad job path")
		return
	}
	s.met.requests.Inc()
	var snap jobs.Snapshot
	var ok bool
	switch r.Method {
	case http.MethodGet:
		snap, ok = jm.Get(id)
	case http.MethodDelete:
		snap, ok = jm.Cancel(id)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.met.countCode(http.StatusMethodNotAllowed)
		http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
		return
	}
	if !ok {
		s.writeError(w, wire.MsgJobStatus, wire.StatusJobNotFound,
			fmt.Sprintf("no job %q (unknown, expired, or evicted)", id))
		return
	}
	frame, err := wire.AppendJobStatusFrame(nil, jobWireStatus(snap))
	if err != nil {
		s.writeError(w, wire.MsgJobStatus, wire.StatusInternal, "status too large to frame: "+err.Error())
		return
	}
	s.writeFrame(w, http.StatusOK, frame)
}

// solveNNZ is the problem-size measure of the sync/async threshold.
func (s *Server) solveNNZ(req *wire.SolveRequest) int {
	if req.ByRef {
		return req.Fp.NNZ
	}
	return len(req.A.Val)
}

func (s *Server) solveSyncNNZ() int {
	switch {
	case s.cfg.SolveSyncNNZ > 0:
		return s.cfg.SolveSyncNNZ
	case s.cfg.SolveSyncNNZ < 0:
		return -1 // every solve is a job (nnz is never negative)
	default:
		return DefaultSolveSyncNNZ
	}
}

// solveServiceReq maps the wire request onto the service surface.
func solveServiceReq(req *wire.SolveRequest, progress func(iter int, resid float64)) *service.SolveRequest {
	return &service.SolveRequest{
		Method: req.Method.SolverMethod(),
		A:      req.A,
		ByRef:  req.ByRef,
		Fp:     req.Fp,
		B:      req.B,
		Opts: solver.Options{
			Gamma:    req.Gamma,
			Sketch:   req.Opts,
			Atol:     req.Atol,
			MaxIters: req.MaxIters,
			SVDDrop:  req.SVDDrop,
			Progress: progress,
		},
		Rank:       req.Rank,
		Oversample: req.Oversample,
		PowerIters: req.PowerIters,
	}
}

// solveWireResp maps a service result onto the wire response.
func solveWireResp(res *service.SolveResult) *wire.SolveResponse {
	info, ok := wire.SolveInfoOf(res.Info, res.Residual, res.PrecondCached)
	if !ok {
		return &wire.SolveResponse{Status: wire.StatusInternal,
			Detail: fmt.Sprintf("method %v has no wire form", res.Info.Method)}
	}
	resp := &wire.SolveResponse{Status: wire.StatusOK, Info: info}
	if res.Factors != nil {
		resp.Factors = &wire.RSVDFactors{U: res.Factors.U, V: res.Factors.V, Sigma: res.Factors.Sigma}
	} else {
		resp.X = res.X
		if resp.X == nil {
			resp.X = []float64{}
		}
	}
	return resp
}

// jobWireStatus maps a job snapshot onto the wire form: done jobs embed
// their retained solve response, failed and cancelled jobs embed a non-OK
// response carrying the failure's wire status, live jobs carry progress
// only.
func jobWireStatus(snap jobs.Snapshot) *wire.JobStatus {
	js := &wire.JobStatus{
		Status: wire.StatusOK,
		ID:     snap.ID,
		State:  snap.State,
		Iters:  snap.Iters,
		Resid:  snap.Resid,
	}
	switch snap.State {
	case jobs.StateDone:
		if resp, ok := snap.Result.(*wire.SolveResponse); ok {
			js.Result = resp
		}
	case jobs.StateFailed, jobs.StateCancelled:
		if snap.Err != nil {
			js.Result = &wire.SolveResponse{Status: wire.StatusOf(snap.Err), Detail: snap.Err.Error()}
		}
	}
	return js
}

// retainedBytes estimates a finished response's resident footprint for the
// manager's result budget: the payload vectors plus a fixed overhead.
func retainedBytes(resp *wire.SolveResponse) int64 {
	b := int64(128)
	b += int64(len(resp.X)) * 8
	if f := resp.Factors; f != nil {
		b += f.U.MemoryBytes() + f.V.MemoryBytes() + int64(len(f.Sigma))*8
	}
	return b
}
