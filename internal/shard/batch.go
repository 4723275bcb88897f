package shard

import (
	"context"
	"sync/atomic"
	"time"

	"sketchsp/internal/wire"
)

// Per-peer batch fan-out: every inline shard attempt is a
// MsgShardBatchRequest frame. The primary attempts of one request's shards
// that route to the same peer ride a single frame, collapsing
// N-shards-on-K-peers from N round trips to K; a peer with one shard gets a
// batch of one. The batch is a transport envelope only — each shard still
// resolves independently through runShard, so a batch-level failure (or a
// per-item error) sends just the affected shards to their backup peers,
// each hedge or failover as its own batch of one. Statuses keep one taxonomy
// at both levels: a batch-level StatusMalformed means the request is bad
// and fails fast, like a malformed item.

// batchCall is one in-flight batch RPC shared by the runShard goroutines
// of its member shards. resps is index-aligned with the request slice and
// valid only after done is closed; pending counts members still waiting,
// and the last one out cancels the RPC context.
type batchCall struct {
	p       *peer
	done    chan struct{}
	resps   []wire.ShardResponse
	err     error
	pending atomic.Int32
	cancel  context.CancelFunc
}

// launchBatch issues one batch frame for reqs to p. Metrics for the frame
// — one peer request, len(reqs) subrequests, the wire bytes and the
// batch-size observation — are counted here exactly once; runShard counts
// only hedges and failovers for a batch-borne attempt.
func (c *Coordinator) launchBatch(ctx context.Context, p *peer, reqs []wire.ShardRequest) *batchCall {
	bctx, cancel := context.WithCancel(ctx)
	bc := &batchCall{p: p, done: make(chan struct{}), cancel: cancel}
	bc.pending.Store(int32(len(reqs)))
	c.met.batchSize.ObserveValue(int64(len(reqs)))
	c.met.subrequests.Add(int64(len(reqs)))
	p.met.requests.Inc()
	p.met.bytes.Add(int64(wire.HeaderSize + wire.ShardBatchRequestSize(reqs)))
	go func() {
		defer close(bc.done)
		start := time.Now()
		bc.resps, bc.err = p.cli.SketchShardBatch(bctx, reqs)
		if bc.err == nil {
			p.lat.Record(time.Since(start))
		}
	}()
	return bc
}

// wait blocks until the batch resolves (or ctx does) and extracts member
// idx's outcome. Per-item errors keep their status chain so runShard's
// failFast classification applies to them unchanged; the echoed J0 is
// checked at placement.
func (bc *batchCall) wait(ctx context.Context, idx int) (*wire.ShardResponse, error) {
	defer bc.release()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-bc.done:
	}
	if bc.err != nil {
		return nil, bc.err
	}
	return &bc.resps[idx], bc.resps[idx].Err()
}

// release retires one member's interest; the last release cancels the RPC
// so an abandoned batch (every member hedged away or failed over) stops
// burning the peer.
func (bc *batchCall) release() {
	if bc.pending.Add(-1) == 0 {
		bc.cancel()
	}
}
