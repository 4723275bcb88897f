package shard

import (
	"context"
	"sync/atomic"
	"time"

	"sketchsp/internal/pool"
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
//
// A batch's responses decode into pooled partials (DESIGN.md §8.5). They
// are recycled only once nobody can read them: the RPC goroutine has
// finished writing them, and every member has either been placed into Â
// or given up on this batch (a hedge or failover won, or the request
// failed). release and unref count those two kinds of holder.

// batchCall is one in-flight batch RPC shared by the runShard goroutines
// of its member shards. part.rs is index-aligned with the request slice and
// valid only after done is closed.
type batchCall struct {
	p      *peer
	done   chan struct{}
	part   *partials
	err    error
	cancel context.CancelFunc
	free   *pool.FreeList[*partials]
	// members counts members whose outcome is not yet placed or dropped;
	// the last one cancels the RPC, so an abandoned batch (every member
	// hedged away or failed over) stops burning the peer, and drops the
	// members' reference.
	members atomic.Int32
	// refs holds two references, the members' and the RPC goroutine's;
	// the last one recycles part.
	refs atomic.Int32
}

// partials is the pooled decode scratch of one batch's responses: each
// item keeps its partial's capacity from one batch to the next.
type partials struct{ rs []wire.ShardResponse }

// launchBatch issues one batch frame for reqs to p. Metrics for the frame
// — one peer request, len(reqs) subrequests, the wire bytes and the
// batch-size observation — are counted here exactly once; runShard counts
// only hedges and failovers for a batch-borne attempt.
func (c *Coordinator) launchBatch(ctx context.Context, p *peer, reqs []wire.ShardRequest) *batchCall {
	bctx, cancel := context.WithCancel(ctx)
	bc := &batchCall{p: p, done: make(chan struct{}), cancel: cancel, free: &c.partials,
		part: c.partials.Get()}
	bc.members.Store(int32(len(reqs)))
	bc.refs.Store(2)
	c.met.batchSize.ObserveValue(int64(len(reqs)))
	c.met.subrequests.Add(int64(len(reqs)))
	p.met.requests.Inc()
	p.met.bytes.Add(int64(wire.HeaderSize + wire.ShardBatchRequestSize(reqs)))
	go func() {
		defer bc.unref()
		defer close(bc.done)
		start := time.Now()
		bc.part.rs, bc.err = p.cli.SketchShardBatch(bctx, reqs, bc.part.rs)
		if bc.err == nil {
			p.lat.Record(time.Since(start))
		}
	}()
	return bc
}

// wait blocks until the batch resolves (or ctx does) and extracts member
// idx's outcome, which stays readable until the member's release. Per-item
// errors keep their status chain so runShard's failFast classification
// applies to them unchanged; the echoed J0 is checked at placement.
func (bc *batchCall) wait(ctx context.Context, idx int) (*wire.ShardResponse, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-bc.done:
	}
	if bc.err != nil {
		return nil, bc.err
	}
	return &bc.part.rs[idx], bc.part.rs[idx].Err()
}

// release retires one member, after its outcome has been placed or
// dropped. Nil-safe: the by-reference path has no batch.
func (bc *batchCall) release() {
	if bc != nil && bc.members.Add(-1) == 0 {
		bc.cancel()
		bc.unref()
	}
}

// unref drops one of the two references; the last returns the partials
// to the pool, without any that have grown past wire.MaxPooledBytes.
func (bc *batchCall) unref() {
	if bc.refs.Add(-1) != 0 {
		return
	}
	rs := bc.part.rs[:cap(bc.part.rs)]
	for i := range rs {
		rs[i].Detail = ""
		if m := rs[i].Partial; m != nil && 8*cap(m.Data) > wire.MaxPooledBytes {
			rs[i].Partial = nil
		}
	}
	bc.free.Put(bc.part)
}
