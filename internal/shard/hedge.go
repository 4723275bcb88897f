package shard

import (
	"context"
	"sort"
	"sync"
	"time"

	"sketchsp/internal/wire"
)

// Shard hedging, after Dean & Barroso's "The Tail at Scale": when one
// shard RPC is slow, re-send the shard to the next ring-order peer and
// take whichever valid answer lands first. Sharding makes a request's
// latency the *max* over its shards, so one straggling worker sets p99 for
// the whole cluster; a hedge bounds the straggler by a healthy peer's
// latency at the cost of a small fraction of duplicate work.
//
// The hedge delay is the configured quantile of the *backup* peer's recent
// latencies — not the laggard's own. A consistently slow worker's own
// quantile is itself slow, so self-quantile hedging never fires against
// exactly the peer that needs it; the backup's window estimates what a
// healthy peer would take, which is the quantity a hedge is betting on.
// Steady-state duplicate work is bounded by roughly (1−q) of shard RPCs:
// a healthy primary beats the backup's q-quantile q of the time.
//
// Correctness is not hedging's problem to solve: every answer for a shard
// is bit-identical (same seed, same global columns), the winner is merged
// and the loser's context is cancelled. Even a duplicate answer that did
// sneak through could not corrupt Â — the Accumulator rejects overlapping
// column coverage, and place() rejects a partial whose echoed j0 or width
// disagrees with the shard. The fault-injection suite pins both layers.

// latWindow is a fixed-size ring of one peer's recent successful RPC
// latencies. Writers are shard attempts; the reader is hedge-delay
// computation. Small and mutex-guarded — the window is touched once per
// RPC, not per matrix entry.
type latWindow struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	next int
	n    int
}

// hedgeMinSamples is the observation count below which Quantile declines
// to estimate — a cold window hedges at HedgeMaxDelay instead.
const hedgeMinSamples = 8

// Record adds one observed latency, evicting the oldest beyond capacity.
func (w *latWindow) Record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Quantile returns the q-quantile of the window, or -1 with fewer than
// hedgeMinSamples observations.
func (w *latWindow) Quantile(q float64) time.Duration {
	var tmp [64]time.Duration
	w.mu.Lock()
	n := w.n
	copy(tmp[:n], w.buf[:n])
	w.mu.Unlock()
	if n < hedgeMinSamples {
		return -1
	}
	s := tmp[:n]
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return s[i]
}

// hedgeDelay is how long to wait before hedging onto backup: the backup's
// recent q-quantile, capped by (and defaulting to, while the window is
// cold) HedgeMaxDelay.
func (c *Coordinator) hedgeDelay(backup *peer) time.Duration {
	d := backup.lat.Quantile(c.cfg.HedgeQuantile)
	if d < 0 || d > c.cfg.HedgeMaxDelay {
		return c.cfg.HedgeMaxDelay
	}
	return d
}

// runShard drives one shard to a single valid answer across its candidate
// peers: attempt the primary (through the shared batch frame bc on the
// inline path), hedge onto the next candidate when the hedge timer fires
// before an answer, fail over on peer-health errors, and cancel every
// losing attempt on return. Input-class failures (failFast) abort
// immediately — no peer can cure a bad request.
//
// The answer is returned with the batch it came from (nil on the
// by-reference path); the caller releases that batch once it has placed
// the answer. runShard itself releases every other attempt's batch, each
// only after the attempt has stopped reading it.
func (c *Coordinator) runShard(ctx context.Context, sh *Shard, cands []*peer, caller *shardCaller, bc *batchCall, bcIdx int) (*wire.ShardResponse, *batchCall, error) {
	type attemptResult struct {
		idx   int
		resp  *wire.ShardResponse
		bc    *batchCall
		err   error
		hedge bool
	}
	results := make(chan attemptResult, len(cands))
	cancels := make([]context.CancelFunc, 0, len(cands))
	var inflight int
	defer func() {
		// Loser cancellation: whichever attempts did not produce the
		// returned answer are torn down with their contexts. A batch
		// attempt's wait returns as soon as its context ends; it is
		// released once its result is in, so its partials are not
		// recycled under a wait still reading them. By-reference attempts
		// own nothing pooled and are left to finish on their own.
		for _, cancel := range cancels {
			cancel()
		}
		if caller.batch != nil {
			for ; inflight > 0; inflight-- {
				(<-results).bc.release()
			}
		}
	}()

	var (
		next     int
		lastErr  error
		lastPeer = cands[0].name
	)
	launch := func(hedge bool) {
		i := next
		next++
		p := cands[i]
		lastPeer = p.name
		inflight++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		if hedge {
			c.met.hedges.Inc()
		} else if lastErr != nil {
			c.met.failovers.Inc()
		}
		if caller.batch != nil {
			// The primary attempt rides the per-peer batch frame fanMerge
			// launched; a hedge or failover is a batch of one. launchBatch
			// counts each frame's metrics.
			b, j := bc, bcIdx
			if i > 0 {
				b, j = caller.batch(actx, p, []*Shard{sh}), 0
			}
			go func() {
				resp, err := b.wait(actx, j)
				results <- attemptResult{i, resp, b, err, hedge}
			}()
			return
		}
		c.met.subrequests.Inc()
		p.met.requests.Inc()
		p.met.bytes.Add(caller.bytes(sh))
		go func() {
			start := time.Now()
			resp, err := caller.call(actx, p, sh)
			if err == nil {
				p.lat.Record(time.Since(start))
			}
			results <- attemptResult{i, resp, nil, err, hedge}
		}()
	}

	// The hedge timer is re-armed after every launch, against the *next*
	// candidate's window, so multi-level hedging walks the ring like
	// failover does. A fresh timer per arm keeps the stale-fire semantics
	// trivial (old channels are simply never selected on again).
	var (
		timer  *time.Timer
		timerC <-chan time.Time
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	armHedge := func() {
		if timer != nil {
			timer.Stop()
		}
		timerC = nil
		if c.cfg.HedgeQuantile <= 0 || next >= len(cands) {
			return
		}
		timer = time.NewTimer(c.hedgeDelay(cands[next]))
		timerC = timer.C
	}

	launch(false)
	armHedge()
	for {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-timerC:
			launch(true)
			armHedge()
		case r := <-results:
			inflight--
			if r.err == nil {
				if r.hedge {
					c.met.hedgeWins.Inc()
				}
				return r.resp, r.bc, nil
			}
			r.bc.release()
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			if failFast(r.err) {
				return nil, nil, &ShardError{J0: sh.J0, J1: sh.J1, Peer: cands[r.idx].name, Err: r.err}
			}
			cands[r.idx].downUntil.Store(time.Now().Add(c.cfg.PeerCooldown).UnixNano())
			lastErr = r.err
			lastPeer = cands[r.idx].name
			if inflight == 0 {
				if next >= len(cands) {
					return nil, nil, &ShardError{J0: sh.J0, J1: sh.J1, Peer: lastPeer, Err: lastErr}
				}
				launch(false)
				armHedge()
			}
		}
	}
}
