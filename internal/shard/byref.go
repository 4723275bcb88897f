package shard

import (
	"context"
	"fmt"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// The coordinator's content-addressed surface. The coordinator keeps its
// own matrix store — the cluster's front door for uploads — and fans
// by-reference sketches out as by-reference *shard* requests: each column
// shard is itself content-addressed (a ColSlice has its own fingerprint),
// so a worker that has seen the shard answers a fixed-size request, and a
// worker that hasn't is cured by the client's upload-and-retry fallback.
// Repeat traffic to the workers is O(shards) frames of
// wire.SketchRefWireSize bytes, not O(nnz).
var _ service.RefBackend = (*Coordinator)(nil)

// PutMatrix uploads a into the coordinator's store. Workers receive their
// shards lazily, on the first by-reference sketch that misses.
func (c *Coordinator) PutMatrix(ctx context.Context, a *sparse.CSC) (store.Info, error) {
	if c.closed.Load() {
		return store.Info{}, service.ErrClosed
	}
	if a == nil {
		return store.Info{}, core.ErrNilMatrix
	}
	if err := ctx.Err(); err != nil {
		return store.Info{}, err
	}
	return c.store.Put(a)
}

// SketchRef computes Â = S·A for the stored matrix fp by by-reference
// shard fan-out. Bit-identity with every other path holds for the same
// reason inline sharding is exact: S's entries depend only on the global
// row index, and a column slice preserves rows, so a worker's standalone
// sketch of the shard *is* the corresponding columns of Â.
func (c *Coordinator) SketchRef(ctx context.Context, fp sparse.Fingerprint, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	start := time.Now()
	c.met.requests.Inc()
	if c.closed.Load() {
		c.met.failures.Inc()
		return nil, core.Stats{}, service.ErrClosed
	}
	if d <= 0 {
		c.met.failures.Inc()
		return nil, core.Stats{}, fmt.Errorf("%w: d=%d", core.ErrInvalidSketchSize, d)
	}
	h, err := c.store.Get(fp)
	if err != nil {
		c.met.failures.Inc()
		return nil, core.Stats{}, err
	}
	defer h.Release()
	a := h.Matrix()
	ahat := dense.NewMatrix(d, a.N)
	stats, err := c.fanMerge(ctx, ahat, a, c.byRefCaller(d, opts))
	if err != nil {
		c.met.failures.Inc()
		return nil, core.Stats{}, err
	}
	stats.Total = time.Since(start)
	return ahat, stats, nil
}

// byRefCaller runs shards through the ring by reference: the routed
// worker gets a fingerprint-only request, and the client's SketchCached
// fallback uploads the shard bytes only on the worker's first sight of
// the content (or after its store evicted it). No batch strategy: the
// upload-on-miss fallback is inherently per-shard, so by-ref shards stay
// on single RPCs (hedging and failover apply unchanged).
func (c *Coordinator) byRefCaller(d int, opts core.Options) *shardCaller {
	return &shardCaller{
		bytes: func(*Shard) int64 { return wire.SketchRefWireSize },
		call: func(ctx context.Context, p *peer, sh *Shard) (*wire.ShardResponse, error) {
			partial, st, err := p.cli.SketchCached(ctx, sh.A, d, opts)
			if err != nil {
				return nil, err
			}
			return &wire.ShardResponse{Status: wire.StatusOK, J0: sh.J0, Stats: st, Partial: partial}, nil
		},
	}
}

// PatchMatrix applies ΔA to the stored matrix fp: the merged matrix enters
// the coordinator's store under its new fingerprint, and the delta is
// forwarded to the workers shard by shard, best-effort, wherever the old
// and new column splits coincide — sparse.Add commutes with ColSlice, so
// patching a worker's old shard with the delta's matching slice produces
// exactly the new shard's content, letting the worker advance its cached
// shard sketches incrementally. Shards whose cut points moved (the
// nnz-balanced split shifted) or whose worker no longer holds the old
// content are skipped: the by-ref fallback uploads them on the next
// sketch, so forwarding failures cost bytes, never correctness.
func (c *Coordinator) PatchMatrix(ctx context.Context, fp sparse.Fingerprint, delta *sparse.CSC) (store.Info, error) {
	if c.closed.Load() {
		return store.Info{}, service.ErrClosed
	}
	if delta == nil {
		return store.Info{}, core.ErrNilMatrix
	}
	h, err := c.store.Get(fp)
	if err != nil {
		return store.Info{}, err
	}
	defer h.Release()
	if err := delta.Validate(); err != nil {
		return store.Info{}, err
	}
	old := h.Matrix()
	sum, err := sparse.Add(old, delta)
	if err != nil {
		return store.Info{}, err
	}
	info, err := c.store.PutOwned(sum)
	if err != nil {
		return store.Info{}, err
	}

	mem := c.mem.Load()
	k := c.cfg.Shards
	if k <= 0 {
		k = len(mem.peers)
	}
	oldShards, newShards := Split(old, k), Split(sum, k)
	if len(oldShards) != len(newShards) {
		return info, nil
	}
	for i := range newShards {
		osh, nsh := &oldShards[i], &newShards[i]
		if osh.J0 != nsh.J0 || osh.J1 != nsh.J1 {
			continue // cut moved: the shard content changed shape, re-upload path covers it
		}
		dslice := delta.ColSlice(osh.J0, osh.J1)
		if dslice.NNZ() == 0 {
			continue // untouched shard: same fingerprint, workers already hold it
		}
		// Forward to the peer the *new* shard routes to — the one future
		// by-ref sketches will ask. Errors (worker never saw the old shard,
		// worker down) are swallowed: best-effort by design.
		order := mem.ring.Order(nsh.A.Fingerprint().Hash)
		p := mem.peers[order[0]]
		if _, err := p.cli.PatchMatrix(ctx, osh.A.Fingerprint(), dslice); err != nil {
			if ctx.Err() != nil {
				return info, nil
			}
			continue
		}
	}
	return info, nil
}
