package client

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/jobs"
	"sketchsp/internal/wire"
)

// This file is the client half of the solve protocol (DESIGN.md §13).
// Solve is the method most callers want: it posts the request and, when
// the server elects to queue it as a job (the request was large, or
// explicitly Async), transparently polls the job to completion — the
// caller sees one blocking call with one error taxonomy either way.
// SolveAsync/JobStatus/JobWait/CancelJob expose the job lifecycle for
// callers that want to multiplex or cancel long solves themselves.

// DefaultJobPoll is the JobWait polling interval when the caller passes 0.
const DefaultJobPoll = 50 * time.Millisecond

// Solve runs one least-squares solve (or randomized SVD) on the server and
// blocks until the answer is back, polling through the job surface when
// the server queues the request instead of solving inline. The response's
// status has already been checked: a non-nil *wire.SolveResponse is
// StatusOK.
func (c *Client) Solve(ctx context.Context, req *wire.SolveRequest) (*wire.SolveResponse, error) {
	var resp *wire.SolveResponse
	var js *wire.JobStatus
	err := c.postSolve(ctx, req, func(typ wire.MsgType, payload []byte) (err error) {
		if typ == wire.MsgSolveResponse {
			resp, err = decodeSolve(payload)
		} else {
			js, err = decodeJob(payload)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if resp != nil {
		return resp, nil
	}
	return c.JobWait(ctx, js.ID, 0)
}

// SolveAsync submits the solve as a job regardless of size and returns the
// job ID for JobStatus/JobWait/CancelJob. The request's Async flag is
// forced on.
func (c *Client) SolveAsync(ctx context.Context, req *wire.SolveRequest) (string, error) {
	r := *req
	r.Async = true
	var js *wire.JobStatus
	err := c.postSolve(ctx, &r, func(typ wire.MsgType, payload []byte) (err error) {
		if typ != wire.MsgJobStatus {
			return fmt.Errorf("%w: expected job status for async solve, got frame type %v", wire.ErrMalformed, typ)
		}
		js, err = decodeJob(payload)
		return err
	})
	if err != nil {
		return "", err
	}
	return js.ID, nil
}

// JobStatus fetches the current state of a job: live progress while it
// runs, the embedded solve response once done. Unknown or expired IDs fail
// with an error unwrapping to jobs.ErrNotFound.
func (c *Client) JobStatus(ctx context.Context, id string) (*wire.JobStatus, error) {
	var js *wire.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, into(&js, decodeJob)); err != nil {
		return nil, err
	}
	return js, nil
}

// CancelJob asks the server to cancel a job and returns its post-cancel
// status. Cancelling a terminal job is a no-op reporting the terminal
// state; the caller distinguishes "cancelled" from "finished first" by the
// returned State.
func (c *Client) CancelJob(ctx context.Context, id string) (*wire.JobStatus, error) {
	var js *wire.JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, into(&js, decodeJob)); err != nil {
		return nil, err
	}
	return js, nil
}

// JobWait polls the job every poll (0 selects DefaultJobPoll) until it
// reaches a terminal state, then returns the solve response for a done job
// or the failure as an error. The caller's context bounds the wait — a
// cancelled wait does NOT cancel the job; use CancelJob for that.
func (c *Client) JobWait(ctx context.Context, id string, poll time.Duration) (*wire.SolveResponse, error) {
	if poll <= 0 {
		poll = DefaultJobPoll
	}
	for {
		js, err := c.JobStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if js.State.Terminal() {
			return jobResult(js)
		}
		if err := c.sleep(ctx, poll); err != nil {
			return nil, err
		}
	}
}

// postSolve ships the request frame to /v1/solve; decode dispatches on
// the response frame type (inline answer vs queued job).
func (c *Client) postSolve(ctx context.Context, req *wire.SolveRequest, decode func(wire.MsgType, []byte) error) error {
	if req == nil || (!req.ByRef && req.A == nil) {
		return core.ErrNilMatrix
	}
	return c.do(ctx, http.MethodPost, "/v1/solve", func(dst []byte) ([]byte, error) { return wire.AppendSolveRequestFrame(dst, req) }, decode)
}

// jobResult converts a terminal job status into the Solve return form.
func jobResult(js *wire.JobStatus) (*wire.SolveResponse, error) {
	if js.Result != nil {
		if err := js.Result.Err(); err != nil {
			return nil, err
		}
		return js.Result, nil
	}
	// A terminal job with no embedded response: cancelled before it
	// produced anything (or a result evicted by the byte budget).
	if js.State == jobs.StateCancelled {
		return nil, fmt.Errorf("%w: job %s cancelled", context.Canceled, js.ID)
	}
	return nil, fmt.Errorf("%w: job %s terminal without result", wire.ErrMalformed, js.ID)
}

func decodeSolve(payload []byte) (*wire.SolveResponse, error) {
	resp, err := wire.DecodeSolveResponse(payload)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

func decodeJob(payload []byte) (*wire.JobStatus, error) {
	js, err := wire.DecodeJobStatus(payload)
	if err != nil {
		return nil, err
	}
	if err := js.Err(); err != nil {
		return nil, err
	}
	return js, nil
}
