package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/pool"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// ErrNoPeers rejects a coordinator configured with an empty peer set.
var ErrNoPeers = errors.New("shard: no peers configured")

// Config tunes the coordinator. The zero value of every field selects a
// default; only Peers is mandatory.
type Config struct {
	// Peers are the initial worker base URLs (e.g. "http://10.0.0.7:7464").
	// The list is canonicalised (sorted, deduped) so routing is independent
	// of flag order; AddPeer/RemovePeer/SetPeers change it at runtime.
	Peers []string
	// Replicas is the vnode count per peer on the hash ring (0 selects
	// DefaultReplicas).
	Replicas int
	// Shards is the number of column shards per request (0 selects one
	// per peer). It is clamped to the column count; fixing it across
	// deployments of different sizes keeps shard fingerprints — and so
	// worker plan-cache keys — stable as the cluster grows.
	Shards int
	// MaxPeersPerShard bounds the failover walk: a shard is attempted on
	// at most this many distinct peers before the request fails (0 means
	// every peer). 1 disables failover (and with it hedging) entirely.
	MaxPeersPerShard int
	// PeerCooldown is how long a peer that failed a shard RPC is avoided
	// by routing (down peers are still used when every candidate for a
	// shard is down). 0 selects 5s.
	PeerCooldown time.Duration
	// HedgeQuantile enables tail hedging when positive: a shard RPC still
	// unanswered after the backup peer's recent latency at this quantile
	// is re-sent to that backup, first valid answer wins. 0 disables
	// hedging. 0.95 is a reasonable production setting (~5% duplicate
	// work ceiling).
	HedgeQuantile float64
	// HedgeMaxDelay caps the hedge delay and is used outright while a
	// backup's latency window is cold (fewer than 8 observations).
	// 0 selects 100ms.
	HedgeMaxDelay time.Duration
	// StoreBytes bounds the coordinator's own content-addressed matrix
	// store behind PutMatrix/SketchRef/PatchMatrix. 0 selects
	// store.DefaultMaxBytes; negative means unbounded.
	StoreBytes int64
	// Client configures the per-peer wire clients (retry/backoff/timeout
	// — the client's own retries handle transient overload; the
	// coordinator's failover layer handles peer death on top).
	Client client.Config
	// Metrics receives the sketchsp_shard_* families. nil creates a
	// private registry, retrievable with Registry().
	Metrics *obs.Registry
}

// peer is one worker endpoint with its routing health, latency window and
// metric handles. Handles are cached by name across membership changes
// (membership.go), so a rejoining worker resumes its series and client.
type peer struct {
	name      string
	cli       *client.Client
	downUntil atomic.Int64 // unix nanos; routing avoids the peer before this
	lat       latWindow    // recent successful RPC latencies (hedge delays)
	met       peerMetrics
}

// Coordinator fans sketch requests out over column shards to a dynamic set
// of worker peers and merges the exact partial sketches. It implements
// service.Backend (and service.PeerAdmin), so server.NewBackend turns it
// into a sketchd process: same handler, codec, deadline and drain
// behaviour as a worker, with shard fan-out as the execution strategy.
type Coordinator struct {
	cfg     Config
	mem     atomic.Pointer[membership] // current routing snapshot (RCU)
	peerMu  sync.Mutex                 // serialises membership mutations
	handles map[string]*peer           // peer handles by name, kept across leave/rejoin
	reg     *obs.Registry
	met     *metrics
	store   *store.Store // content-addressed surface (byref.go)
	closed  atomic.Bool
	// partials pools the decode scratch of batch responses (batch.go).
	partials pool.FreeList[*partials]
}

var _ service.Backend = (*Coordinator)(nil)

// New builds a coordinator over cfg.Peers. The peer set can change at
// runtime through the PeerAdmin surface or a watched peers file.
func New(cfg Config) (*Coordinator, error) {
	if cfg.PeerCooldown <= 0 {
		cfg.PeerCooldown = 5 * time.Second
	}
	if cfg.HedgeMaxDelay <= 0 {
		cfg.HedgeMaxDelay = 100 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		handles: make(map[string]*peer),
		reg:     cfg.Metrics,
		met:     newMetrics(cfg.Metrics),
		store:   store.New(store.Config{MaxBytes: cfg.StoreBytes, Metrics: cfg.Metrics}),
	}
	c.partials.New = func() *partials { return new(partials) }
	if _, err := c.setPeersLocked(cfg.Peers); err != nil {
		return nil, err
	}
	registerPeersDown(cfg.Metrics, func() []*peer { return c.mem.Load().peers })
	return c, nil
}

// Registry returns the metrics registry the shard families live on.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Peers returns the canonical peer list of the current membership.
func (c *Coordinator) Peers() []string { return c.mem.Load().ring.Peers() }

// Close makes subsequent requests fail with service.ErrClosed. Idempotent;
// in-flight fan-outs complete.
func (c *Coordinator) Close() { c.closed.Store(true) }

// ShardError reports which shard and peer a fan-out failure came from. It
// unwraps to the underlying cause, so errors.Is against the canonical
// sentinels (core.ErrInvalidMatrix, service.ErrOverloaded, ...) behaves
// exactly as on the single-process path.
type ShardError struct {
	J0, J1 int    // column range of the failing shard
	Peer   string // last peer attempted
	Err    error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard [%d:%d) on %s: %v", e.J0, e.J1, e.Peer, e.Err)
}
func (e *ShardError) Unwrap() error { return e.Err }

// Sketch computes Â = S·A by fanning column shards out to the workers and
// merging the exact partials. Bit-identity with the single-process path
// holds because S's entries depend only on (seed, d, blocking, global row),
// never on which columns share a request — pinned end to end by the
// coordinator tests.
func (c *Coordinator) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	return c.sketch(ctx, nil, a, d, opts)
}

// sketch merges the sketch into ahat, which must be d×n, or into a fresh
// matrix when ahat is nil (the service.Request.Ahat rule). The partials
// overwrite ahat column by column; after a failure it holds a partial,
// unusable sketch.
func (c *Coordinator) sketch(ctx context.Context, ahat *dense.Matrix, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	start := time.Now()
	c.met.requests.Inc()
	ahat, stats, err := c.sketchInline(ctx, ahat, a, d, opts)
	if err != nil {
		c.met.failures.Inc()
		return nil, core.Stats{}, err
	}
	stats.Total = time.Since(start)
	return ahat, stats, nil
}

func (c *Coordinator) sketchInline(ctx context.Context, ahat *dense.Matrix, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	if c.closed.Load() {
		return nil, core.Stats{}, service.ErrClosed
	}
	if a == nil {
		return nil, core.Stats{}, core.ErrNilMatrix
	}
	if d <= 0 {
		return nil, core.Stats{}, fmt.Errorf("%w: d=%d", core.ErrInvalidSketchSize, d)
	}
	if err := a.Validate(); err != nil {
		return nil, core.Stats{}, fmt.Errorf("%w: %v", core.ErrInvalidMatrix, err)
	}
	if ahat == nil {
		ahat = dense.NewMatrix(d, a.N)
	} else if ahat.Rows != d || ahat.Cols != a.N {
		return nil, core.Stats{}, fmt.Errorf("shard: Â is %dx%d, want %dx%d", ahat.Rows, ahat.Cols, d, a.N)
	}

	caller := &shardCaller{
		batch: func(ctx context.Context, p *peer, group []*Shard) *batchCall {
			reqs := make([]wire.ShardRequest, len(group))
			for i, sh := range group {
				reqs[i] = wire.ShardRequest{
					J0:     sh.J0,
					NTotal: a.N,
					SketchRequest: wire.SketchRequest{
						D:    d,
						Opts: opts,
						A:    sh.A,
					},
				}
			}
			return c.launchBatch(ctx, p, reqs)
		},
	}
	stats, err := c.fanMerge(ctx, ahat, a, caller)
	return ahat, stats, err
}

// shardCaller is the per-path RPC strategy fanMerge hands to runShard.
// Inline sharding sets batch: every attempt is a shard batch frame, one
// per peer for the primary attempts and a batch of one for each hedge or
// failover. By-reference sharding sets call and bytes: one fingerprint
// request per shard, because the upload fallback is per-shard. Placement,
// hedging, failover and merging are shared; only the wire call differs.
type shardCaller struct {
	batch func(ctx context.Context, p *peer, group []*Shard) *batchCall
	call  func(ctx context.Context, p *peer, sh *Shard) (*wire.ShardResponse, error)
	bytes func(sh *Shard) int64
}

// fanMerge is the shard fan-out and exact merge shared by the inline and
// by-reference paths: load one membership snapshot, split a into
// nnz-balanced column shards, resolve each shard's candidate peers,
// group same-primary shards into one batch frame per peer where the
// caller batches, run every shard through runShard concurrently, and
// place the partials into ahat. The whole fan-out completes against the
// snapshot it loaded — membership changes re-route only subsequent
// requests.
func (c *Coordinator) fanMerge(ctx context.Context, ahat *dense.Matrix, a *sparse.CSC, caller *shardCaller) (core.Stats, error) {
	mem := c.mem.Load()
	k := c.cfg.Shards
	if k <= 0 {
		k = len(mem.peers)
	}
	fsp := obs.StartSpan(c.met.fanout)
	shards := Split(a, k)
	cands := make([][]*peer, len(shards))
	for i := range shards {
		cands[i] = mem.candidates(shards[i].A.Fingerprint().Hash, c.cfg.MaxPeersPerShard)
	}

	// Fan-out: one goroutine per shard. The shared context is canceled on
	// the first hard failure so surviving RPCs stop burning worker time.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Per-peer batching: shards sharing a primary candidate ride one wire
	// frame, a lone shard as a batch of one.
	type batchRef struct {
		bc  *batchCall
		idx int
	}
	batchOf := make([]batchRef, len(shards))
	if caller.batch != nil {
		groups := make(map[*peer][]int)
		for i := range shards {
			p := cands[i][0]
			groups[p] = append(groups[p], i)
		}
		for p, idxs := range groups {
			group := make([]*Shard, len(idxs))
			for gi, si := range idxs {
				group[gi] = &shards[si]
			}
			bc := caller.batch(fctx, p, group)
			for gi, si := range idxs {
				batchOf[si] = batchRef{bc, gi}
			}
		}
	}

	type result struct {
		idx  int
		resp *wire.ShardResponse
		bc   *batchCall // the answer's batch, released once it is placed
		err  error
	}
	results := make(chan result, len(shards))
	for i := range shards {
		go func(i int) {
			br := batchOf[i]
			resp, bc, err := c.runShard(fctx, &shards[i], cands[i], caller, br.bc, br.idx)
			results <- result{i, resp, bc, err}
		}(i)
	}
	var (
		firstErr error
		stats    core.Stats
		acc      = NewAccumulator(ahat)
	)
	for range shards {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
				cancel()
			}
			continue
		}
		if firstErr != nil {
			r.bc.release()
			continue // draining after failure
		}
		sh := &shards[r.idx]
		msp := obs.StartSpan(c.met.merge)
		err := c.place(acc, sh, r.resp)
		msp.End()
		st := r.resp.Stats
		r.bc.release()
		if err != nil {
			firstErr = err
			cancel()
			continue
		}
		stats.Samples += st.Samples
		stats.Flops += st.Flops
		stats.SampleTime += st.SampleTime
		stats.ConvertTime += st.ConvertTime
		stats.Steals += st.Steals
		if st.Imbalance > stats.Imbalance {
			stats.Imbalance = st.Imbalance
		}
	}
	fsp.End()
	if firstErr != nil {
		// Prefer the caller's verdict when their deadline or cancellation
		// raced the fan-out — the shard that lost the race reports a
		// cancellation artifact, not the cause.
		if ctx.Err() != nil {
			return core.Stats{}, ctx.Err()
		}
		return core.Stats{}, firstErr
	}
	if err := acc.Complete(); err != nil {
		return core.Stats{}, err
	}
	return stats, nil
}

// place validates one worker's partial against its shard and merges it.
// Together with the Accumulator's coverage check this is the duplicate/
// misplacement rejection layer: a partial whose echoed j0 or width
// disagrees with the shard fails the request rather than corrupting Â.
func (c *Coordinator) place(acc *Accumulator, sh *Shard, resp *wire.ShardResponse) error {
	width := sh.J1 - sh.J0
	if resp.J0 != sh.J0 {
		return fmt.Errorf("shard: response echoes j0=%d for shard [%d:%d)", resp.J0, sh.J0, sh.J1)
	}
	if resp.Partial == nil || resp.Partial.Cols != width {
		cols := -1
		if resp.Partial != nil {
			cols = resp.Partial.Cols
		}
		return fmt.Errorf("shard: partial has %d columns for shard [%d:%d)", cols, sh.J0, sh.J1)
	}
	return acc.Add(sh.J0, resp.Partial)
}

// failFast reports whether err is an input-class failure that no failover
// can cure: the request itself is wrong (invalid matrix, bad options,
// malformed or oversized frames), so every peer would reject it the same
// way. Peer-health failures — transport errors, exhausted overload
// retries, a draining or crashed worker, internal errors — return false
// and trigger failover instead.
func failFast(err error) bool {
	var se *wire.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case wire.StatusInvalidMatrix, wire.StatusInvalidSketchSize,
			wire.StatusBadOptions, wire.StatusNilMatrix,
			wire.StatusPlanClosed, wire.StatusMalformed:
			return true
		}
		return false
	}
	// Local encode failures and oversized responses are deterministic. A
	// bare ErrMalformed (a corrupt response that still framed) is NOT here:
	// that is the peer's fault, and a backup peer may answer cleanly.
	return errors.Is(err, wire.ErrTooLarge) || errors.Is(err, core.ErrNilMatrix)
}

// SketchBatch serves the items concurrently, each through the sharded
// Sketch path, merging into the item's Request.Ahat when it is set and
// into a fresh matrix otherwise. Per-item outcomes land in the
// index-aligned responses; batch-level grouping happens downstream on each
// worker (the shard RPCs of different items hit the workers' plan caches
// independently).
func (c *Coordinator) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	resps := make([]service.Response, len(reqs))
	// Modest parallelism across items: the per-item fan-out already uses
	// every peer, so running more items than peers mostly adds queueing.
	sem := make(chan struct{}, len(c.mem.Load().peers))
	done := make(chan int, len(reqs))
	for i := range reqs {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem; done <- i }()
			r := &reqs[i]
			ahat, st, err := c.sketch(ctx, r.Ahat, r.A, r.D, r.Opts)
			if err != nil {
				resps[i] = service.Response{Err: err}
				return
			}
			resps[i] = service.Response{Ahat: ahat, Stats: st}
		}(i)
	}
	for range reqs {
		<-done
	}
	return resps
}
