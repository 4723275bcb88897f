package shard

import (
	"strconv"
	"time"

	"sketchsp/internal/obs"
)

// metrics is the coordinator's sketchsp_shard_* family set. Per-peer
// series are created once per peer name and cached across membership
// changes (a rejoining peer resumes its counters), so the fan-out hot
// path touches only pre-resolved atomics.
type metrics struct {
	requests    *obs.Counter   // coordinated sketch requests
	subrequests *obs.Counter   // shard attempts issued (batch items count individually)
	failovers   *obs.Counter   // shard attempts rerouted to a backup peer after a failure
	hedges      *obs.Counter   // hedge attempts fired on a latency timer
	hedgeWins   *obs.Counter   // shards whose first valid answer came from a hedge
	peerChanges *obs.Counter   // membership changes applied (join, leave, file update)
	failures    *obs.Counter   // coordinated requests that failed
	fanout      *obs.Histogram // fan-out stage: split + route + all shard RPCs
	merge       *obs.Histogram // merge stage: partial placement + completeness check
	batchSize   *obs.Histogram // shards per batch frame (value histogram)
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		requests: r.Counter("sketchsp_shard_requests_total",
			"Sketch requests coordinated across workers."),
		subrequests: r.Counter("sketchsp_shard_subrequests_total",
			"Shard attempts issued to workers, including failover retries and hedges; batch items count individually."),
		failovers: r.Counter("sketchsp_shard_failovers_total",
			"Shard attempts rerouted to a backup peer after a peer failure."),
		hedges: r.Counter("sketchsp_shard_hedges_total",
			"Hedge attempts fired: shard re-sent to a backup after the hedge latency threshold."),
		hedgeWins: r.Counter("sketchsp_shard_hedge_wins_total",
			"Shards whose first valid answer came from a hedged attempt."),
		peerChanges: r.Counter("sketchsp_shard_peer_changes_total",
			"Membership changes applied: peer joins, leaves and peers-file updates."),
		failures: r.Counter("sketchsp_shard_failures_total",
			"Coordinated sketch requests that returned an error."),
		fanout: r.Histogram("sketchsp_shard_fanout_seconds",
			"Fan-out stage: split, route, and all shard RPCs of one request."),
		merge: r.Histogram("sketchsp_shard_merge_seconds",
			"Merge stage: partial sketch placement and completeness check."),
		batchSize: r.ValueHistogram("sketchsp_shard_batch_size",
			"Shards carried per shard batch frame."),
	}
}

// peerMetrics are one worker's series, labeled peer="<addr>".
type peerMetrics struct {
	requests *obs.Counter // RPC frames sent to this peer (a batch frame counts once)
	bytes    *obs.Counter // request bytes shipped to this peer
}

func newPeerMetrics(r *obs.Registry, peer string) peerMetrics {
	labels := `peer=` + strconv.Quote(peer)
	return peerMetrics{
		requests: r.LabeledCounter("sketchsp_shard_peer_requests_total", labels,
			"RPC frames issued, by destination peer."),
		bytes: r.LabeledCounter("sketchsp_shard_peer_bytes_total", labels,
			"Shard request bytes shipped, by destination peer."),
	}
}

// registerPeersDown exposes the live cooldown state as a scrape-time
// gauge: peers of the current membership currently marked down (their
// cooldown has not expired). load resolves the membership at scrape time
// so the gauge tracks joins and leaves.
func registerPeersDown(r *obs.Registry, load func() []*peer) {
	r.GaugeFunc("sketchsp_shard_peers_down",
		"Peers currently in failure cooldown.", func() int64 {
			now := time.Now().UnixNano()
			var n int64
			for _, p := range load() {
				if p.downUntil.Load() > now {
					n++
				}
			}
			return n
		})
}
