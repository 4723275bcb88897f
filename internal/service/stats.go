package service

import (
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/obs"
)

// HistBuckets is the histogram resolution, shared with (and defined by) the
// obs layer: bucket i counts requests with latency in
// [1µs·2^i, 1µs·2^(i+1)), i.e. 1µs up to ~34s, with bucket 0 absorbing
// sub-microsecond requests and the last bucket everything slower. Exported
// so consumers of Stats.LatencyHist (the /stats endpoint, the benches) can
// size against it.
const HistBuckets = obs.HistBuckets

// BucketCeiling returns the inclusive upper edge of histogram bucket i —
// the latency a quantile read from that bucket reports.
func BucketCeiling(i int) time.Duration { return obs.BucketCeiling(i) }

// EntryStats is the per-cache-entry slice of a Stats snapshot: which plan,
// how hot, and how well its executes balanced. Mean/MaxImbalance aggregate
// the measured core.Stats.Imbalance ratio over this entry's executes
// (1.0 = perfect balance; only parallel rounds report one).
type EntryStats struct {
	// Matrix shape and sketch size identifying the entry (from the key).
	M, N, NNZ int
	D         int
	// Plan summarises what the planner decided for this entry (resolved
	// algorithm, blocking, workers, predicted imbalance, plan/convert
	// time).
	Plan core.PlanStats
	// Executes counts completed executes served from this entry; Steals
	// and Busy accumulate over them.
	Executes int64
	Steals   int64
	Busy     time.Duration
	// MeanImbalance / MaxImbalance aggregate the measured per-round load
	// imbalance ratios. 0 when no parallel round has run.
	MeanImbalance float64
	MaxImbalance  float64
}

// Stats is a point-in-time snapshot of the service counters, the latency
// histogram summary, and the per-entry aggregates in MRU→LRU order.
type Stats struct {
	// Cache counters. Hits counts requests that found an entry (including
	// joining an in-progress single-flight build); Misses counts requests
	// that inserted one; Builds counts successful plan constructions —
	// single-flight keeps Builds ≤ Misses under races. BuildErrors counts
	// failed constructions; Evictions counts LRU evictions.
	Hits, Misses, Builds, BuildErrors, Evictions int64
	// Backpressure counters: Rejections is load shed at the full queue,
	// Cancels counts requests that died on context deadline/cancel while
	// queued, waiting on a build, or mid-execute.
	Rejections, Cancels int64
	// Live gauges.
	InFlight, QueueDepth int64
	CachedPlans          int
	// Latency summary over completed (successful) requests, admission
	// queueing included. The P-fields are derived from LatencyHist via
	// LatencyQuantile at snapshot time; other quantiles can be read from
	// the same snapshot without touching the live histogram.
	Requests                                                                int64
	LatencyMean, LatencyP50, LatencyP90, LatencyP95, LatencyP99, LatencyMax time.Duration
	// LatencyHist is the raw log₂ bucket snapshot: bucket i counts
	// requests with latency in [1µs·2^i, 1µs·2^(i+1)) (bucket 0 also
	// absorbs sub-microsecond requests, the last bucket everything
	// slower). The /stats endpoint serves it verbatim.
	LatencyHist [HistBuckets]int64
	// Entries holds the per-cache-entry aggregates, most recently used
	// first.
	Entries []EntryStats
}

// LatencyQuantile returns an upper bound of the q-quantile (0 < q ≤ 1)
// from the snapshot's bucket boundaries: the top edge of the first bucket
// at which the cumulative count reaches q·total. Quantiles beyond the last
// occupied bucket report LatencyMax; an empty snapshot reports 0. This is
// the single home of the bucket math — Stats(), the /stats endpoint and
// the benches all read quantiles through it.
func (st *Stats) LatencyQuantile(q float64) time.Duration {
	var total int64
	for _, c := range st.LatencyHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want < 1 {
		want = 1
	}
	if want > total {
		want = total
	}
	var cum int64
	for i, c := range st.LatencyHist {
		cum += c
		if cum >= want {
			return BucketCeiling(i)
		}
	}
	return st.LatencyMax
}

// Stats snapshots the service. It is safe to call concurrently with
// requests; counters are read individually, so the snapshot is coherent
// per-field, not globally atomic.
func (s *Service) Stats() Stats {
	m := s.met
	st := Stats{
		Hits:        m.hits.Value(),
		Misses:      m.misses.Value(),
		Builds:      m.builds.Value(),
		BuildErrors: m.buildErrors.Value(),
		Evictions:   s.plans.Evictions(),
		Rejections:  m.rejections.Value(),
		Cancels:     m.cancels.Value(),
		InFlight:    m.inFlight.Value(),
		QueueDepth:  m.queueDepth.Value(),
		Requests:    m.latency.Count(),
		LatencyMax:  time.Duration(m.latency.MaxNS()),
	}
	m.latency.Snapshot(&st.LatencyHist)
	st.LatencyP50 = st.LatencyQuantile(0.50)
	st.LatencyP90 = st.LatencyQuantile(0.90)
	st.LatencyP95 = st.LatencyQuantile(0.95)
	st.LatencyP99 = st.LatencyQuantile(0.99)
	if st.Requests > 0 {
		st.LatencyMean = time.Duration(m.latency.SumNS() / st.Requests)
	}
	st.CachedPlans = s.plans.Len()
	st.Entries = make([]EntryStats, 0, st.CachedPlans)
	s.plans.Each(func(_ planKey, e *entry) {
		select {
		case <-e.ready:
		default:
			return // still building; no plan stats yet
		}
		if e.plan == nil {
			return
		}
		es := EntryStats{
			M: e.key.fp.M, N: e.key.fp.N, NNZ: e.key.fp.NNZ,
			D:    e.key.d,
			Plan: e.plan.Stats(),
		}
		e.mu.Lock()
		es.Executes = e.executes
		es.Steals = e.steals
		es.Busy = e.busy
		es.MaxImbalance = e.imbMax
		if e.imbN > 0 {
			es.MeanImbalance = e.imbSum / float64(e.imbN)
		}
		e.mu.Unlock()
		st.Entries = append(st.Entries, es)
	})
	return st
}
