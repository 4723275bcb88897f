package server

import (
	"context"
	"fmt"
	"net/http"

	"sketchsp/internal/core"
	"sketchsp/internal/obs"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// POST /v1/sketch serves four request message types through one path.
// A single inline or by-ref request is a batch of one item; a batch or a
// shard batch carries several. Each type has one sketchRoutes row: how its
// items decode, which response type answers it, how its items execute and
// how their outcomes encode. Everything else is shared:
//
//   - counting: the items of a frame count as requests once the frame
//     decodes; a frame that never reaches the backend (unreadable, bytes
//     after the frame, a bad deadline header, a by-ref request to a
//     backend without a store) counts one bad request;
//   - the response form: once the frame's type names a row, every answer,
//     errors included, is that row's response type; only a body that is
//     no /v1/sketch frame at all is answered in the single-response form;
//   - the outcome of every item, in order: the MaxSketchBytes check, the
//     backend call, the context's verdict over a failed call (a deadline
//     that raced the execute reads as the deadline), then wire.StatusOf;
//   - the HTTP status: a single response mirrors its item's wire status,
//     a batch response is 200 with per-item statuses inside;
//   - spans: a frame that reaches the backend gets one decode, one
//     execute and one encode span; a rejected frame its decode span only.

// sketchRoute is one /v1/sketch message type's row.
type sketchRoute struct {
	resp  wire.MsgType // the response frame type
	byRef bool         // items name stored matrices: needs a RefBackend
	// decode decodes the payload's items into sc's item scratch and
	// appends them to sc.items.
	decode func(sc *reqScratch, payload []byte) error
	// execute runs the items the size check admitted.
	execute func(s *Server, ctx context.Context, sc *reqScratch)
	// encode frames the response of the settled items into dst.
	encode func(dst []byte, sc *reqScratch) ([]byte, error)
}

var sketchRoutes = map[wire.MsgType]*sketchRoute{
	wire.MsgSketchRequest: {resp: wire.MsgSketchResponse,
		decode: decodeInline, execute: executeBatch, encode: encodeSketch},
	wire.MsgSketchRef: {resp: wire.MsgSketchResponse, byRef: true,
		decode: decodeRef, execute: executeRef, encode: encodeSketch},
	wire.MsgBatchRequest: {resp: wire.MsgBatchResponse,
		decode: decodeBatch, execute: executeBatch, encode: encodeBatch},
	wire.MsgShardBatchRequest: {resp: wire.MsgShardBatchResponse,
		decode: decodeShardBatch, execute: executeBatch, encode: encodeShardBatch},
}

// sketchItem is one sketch of a /v1/sketch frame on its way through the
// handler.
type sketchItem struct {
	req     service.Request    // A (nil when by-ref), D, Opts, and Ahat from the scratch
	fp      sparse.Fingerprint // by-ref: the stored matrix
	j0      int                // shard: the placement the response echoes
	refused error              // the MaxSketchBytes check's verdict
	resp    service.Response   // the backend's outcome
	st      wire.Status        // the settled outcome (settle)
	detail  string
}

// settle applies the outcome rule: a size refusal stands; a failed backend
// call takes the context's verdict once the context has ended, so a client
// that asked for a bounded request sees the deadline status rather than an
// internal cancellation artifact; wire.StatusOf classifies what is left.
func (it *sketchItem) settle(ctx context.Context) {
	err := it.refused
	if err == nil && it.resp.Err != nil {
		if err = it.resp.Err; ctx.Err() != nil {
			err = ctx.Err()
		}
	}
	if err != nil {
		it.st, it.detail = wire.StatusOf(err), err.Error()
	}
}

func (it *sketchItem) sketchResponse() wire.SketchResponse {
	return wire.SketchResponse{Status: it.st, Detail: it.detail, Stats: it.resp.Stats, Ahat: it.resp.Ahat}
}

// handleSketch serves POST /v1/sketch. Every request message type takes
// the same path — decode, execute, encode, one span each — and differs
// only in its sketchRoutes row. Every buffer on the path is the pooled
// scratch's: the body, the decoded items, the outputs and the frame.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.met.countCode(http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := s.scratch.Get()
	defer s.putScratch(sc)

	dsp := obs.StartSpan(s.met.decode)
	rt, ctx, cancel, err := s.decodeSketch(sc, w, r)
	dsp.End()
	if err != nil {
		s.met.badRequests.Inc()
		typ := wire.MsgSketchResponse
		if rt != nil {
			typ = rt.resp
		}
		s.writeError(w, typ, wire.StatusOf(err), err.Error())
		return
	}
	defer cancel()
	items := sc.items
	s.met.requests.Add(int64(len(items)))
	if rt.byRef {
		if _, ok := s.refBackend(w, rt.resp); !ok {
			return
		}
	}

	xsp := obs.StartSpan(s.met.execute)
	sc.ahats = resize(sc.ahats, len(items))
	for i := range items {
		it := &items[i]
		n := it.fp.N
		if it.req.A != nil {
			n = it.req.A.N
		}
		// An admitted inline item sketches into its scratch output; a
		// by-ref answer comes from RefBackend.SketchRef, which has no
		// destination form.
		if it.refused = s.checkSketchSize(it.req.D, n); it.refused == nil && it.req.A != nil && it.req.D > 0 {
			it.req.Ahat = reshape(&sc.ahats[i], it.req.D, n)
		}
	}
	rt.execute(s, ctx, sc)
	xsp.End()

	esp := obs.StartSpan(s.met.encode)
	for i := range items {
		items[i].settle(ctx)
	}
	code := http.StatusOK
	if !rt.resp.IsBatch() {
		code = httpStatus(items[0].st)
	}
	// A batch of near-MaxSketchBytes sketches can legitimately exceed the
	// 32-bit frame length; answer with a framable error instead of a
	// length-wrapped frame that would desync the client's decoder.
	out, err := rt.frame(sc)
	if err != nil {
		esp.End()
		s.writeError(w, rt.resp, wire.StatusInternal, "response too large to frame: "+err.Error())
		return
	}
	s.writeFrame(w, code, out)
	esp.End()
}

// frame encodes the answer to the settled items in one pass into the
// pooled sc.buf, grown once to the answer's exact size when it is short.
func (rt *sketchRoute) frame(sc *reqScratch) ([]byte, error) {
	out, err := rt.encode(sc.buf[:0], sc)
	if err == nil {
		sc.buf = out
	}
	return out, err
}

// decodeSketch is the decode stage of /v1/sketch: the body under
// MaxBodyBytes, the frame and its row, nothing after the frame, the
// request deadline, then the payload into sc.items by the row. The row is
// returned as soon as the frame's type names one, so every later failure
// is answered in that row's response form.
func (s *Server) decodeSketch(sc *reqScratch, w http.ResponseWriter, r *http.Request) (*sketchRoute, context.Context, context.CancelFunc, error) {
	body, err := s.readBody(sc, w, r)
	if err != nil {
		return nil, nil, nil, err
	}
	typ, payload, rest, err := wire.SplitFrame(body, int(s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, nil, nil, err
	}
	rt := sketchRoutes[typ]
	if rt == nil {
		return nil, nil, nil, fmt.Errorf("%w: unexpected message type %v", wire.ErrMalformed, typ)
	}
	if err := wire.NoTrailing(rest); err != nil {
		return rt, nil, nil, err
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		return rt, nil, nil, err
	}
	if err := rt.decode(sc, payload); err != nil {
		cancel()
		return rt, nil, nil, err
	}
	return rt, ctx, cancel, nil
}

// checkSketchSize bounds the response allocation 8·d·n. An n = 0 sketch
// counts as one column: the plan's column buffers grow with d even when
// the answer is empty.
func (s *Server) checkSketchSize(d, n int) error {
	if d > 0 && int64(d) > s.cfg.MaxSketchBytes/8/int64(max(n, 1)) {
		return fmt.Errorf("%w: sketch %dx%d exceeds MaxSketchBytes %d",
			core.ErrBadOptions, d, n, s.cfg.MaxSketchBytes)
	}
	return nil
}

// decodeInline decodes a MsgSketchRequest: the matrix reuses the scratch
// request's slices.
func decodeInline(sc *reqScratch, payload []byte) error {
	if err := wire.DecodeRequestInto(&sc.req, payload); err != nil {
		return err
	}
	sc.items = append(sc.items, sketchItem{req: service.Request{A: sc.req.A, D: sc.req.D, Opts: sc.req.Opts}})
	return nil
}

// decodeRef decodes a MsgSketchRef: the 121-byte request names its matrix
// by fingerprint, and the answer is the MsgSketchResponse the inline path
// gives.
func decodeRef(sc *reqScratch, payload []byte) error {
	r, err := wire.DecodeSketchRef(payload)
	if err != nil {
		return err
	}
	sc.items = append(sc.items, sketchItem{req: service.Request{D: r.D, Opts: r.Opts}, fp: r.Fp})
	return nil
}

// decodeBatch decodes a MsgBatchRequest into the scratch batch requests.
func decodeBatch(sc *reqScratch, payload []byte) error {
	var err error
	sc.batch, err = wire.DecodeBatchRequestInto(sc.batch, payload)
	for _, r := range sc.batch {
		sc.items = append(sc.items, sketchItem{req: service.Request{A: r.A, D: r.D, Opts: r.Opts}})
	}
	return err
}

// decodeShardBatch decodes the column shards of one sketch that a
// coordinator routed here into the scratch shard requests; any sketchd
// answers them. A frame that fails the strict decode (corrupt envelope or
// item, mixed matrices, overlapping column ranges) is rejected whole,
// which the coordinator fails fast.
func decodeShardBatch(sc *reqScratch, payload []byte) error {
	var err error
	sc.shards, err = wire.DecodeShardBatchRequestInto(sc.shards, payload)
	for _, r := range sc.shards {
		sc.items = append(sc.items, sketchItem{req: service.Request{A: r.A, D: r.D, Opts: r.Opts}, j0: r.J0})
	}
	return err
}

func executeRef(s *Server, ctx context.Context, sc *reqScratch) {
	rb := s.backend.(service.RefBackend) // the handler checked it
	if it := &sc.items[0]; it.refused == nil {
		it.resp.Ahat, it.resp.Stats, it.resp.Err = rb.SketchRef(ctx, it.fp, it.req.D, it.req.Opts)
	}
}

// executeBatch runs the inline items — a single request is a batch of
// one — through one SketchBatch call, which groups them by plan key so
// same-matrix items resolve the cache once and execute back-to-back on the
// hot plan, each into its scratch output (Request.Ahat). Refused items
// ride along as empty requests and keep their refusal.
func executeBatch(s *Server, ctx context.Context, sc *reqScratch) {
	items := sc.items
	sc.breqs = resize(sc.breqs, len(items))
	for i := range items {
		sc.breqs[i] = service.Request{}
		if items[i].refused == nil {
			sc.breqs[i] = items[i].req
		}
	}
	for i, r := range s.backend.SketchBatch(ctx, sc.breqs) {
		items[i].resp = r
	}
}

func encodeSketch(dst []byte, sc *reqScratch) ([]byte, error) {
	r := sc.items[0].sketchResponse()
	return wire.AppendFrame(dst, wire.MsgSketchResponse, wire.ResponseSize(&r), func(dst []byte) []byte {
		return wire.AppendResponse(dst, &r)
	})
}

func encodeBatch(dst []byte, sc *reqScratch) ([]byte, error) {
	sc.resps = resize(sc.resps, len(sc.items))
	for i := range sc.items {
		sc.resps[i] = sc.items[i].sketchResponse()
	}
	return wire.AppendFrame(dst, wire.MsgBatchResponse, wire.BatchResponseSize(sc.resps), func(dst []byte) []byte {
		return wire.AppendBatchResponse(dst, sc.resps)
	})
}

// encodeShardBatch answers each shard with its J0 echo, which the
// coordinator checks against the placement it sent.
func encodeShardBatch(dst []byte, sc *reqScratch) ([]byte, error) {
	sc.shardResps = resize(sc.shardResps, len(sc.items))
	for i := range sc.items {
		it := &sc.items[i]
		sc.shardResps[i] = wire.ShardResponse{Status: it.st, Detail: it.detail, J0: it.j0, Stats: it.resp.Stats, Partial: it.resp.Ahat}
	}
	return wire.AppendFrame(dst, wire.MsgShardBatchResponse, wire.ShardBatchResponseSize(sc.shardResps), func(dst []byte) []byte {
		return wire.AppendShardBatchResponse(dst, sc.shardResps)
	})
}
