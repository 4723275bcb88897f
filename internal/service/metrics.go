package service

import (
	"sketchsp/internal/core"
	"sketchsp/internal/obs"
)

// svcMetrics is the service's metric set, registered once per Service on
// its obs.Registry. These handles are the *single* home of the counters —
// Stats() reads the same atomics /metrics scrapes, which is what makes the
// two endpoints incapable of disagreeing (TestStatsMetricsReconcile and the
// server e2e suite pin this).
type svcMetrics struct {
	hits        *obs.Counter
	misses      *obs.Counter
	builds      *obs.Counter
	buildErrors *obs.Counter
	rejections  *obs.Counter
	cancels     *obs.Counter
	inFlight    *obs.Gauge
	queueDepth  *obs.Gauge
	latency     *obs.Histogram // full request latency, admission included
	queueWait   *obs.Histogram // admission-queue stage (contended path only)
	plan        *core.PlanMetrics
}

// newSvcMetrics registers the service metric families on r. Names follow
// the stack-wide scheme (DESIGN.md §9): sketchsp_service_* for this layer,
// sketchsp_plan_* for the execute stage shared by every cached plan.
func newSvcMetrics(r *obs.Registry) *svcMetrics {
	return &svcMetrics{
		hits: r.Counter("sketchsp_service_cache_hits_total",
			"Requests that found a cached plan (including single-flight joins)."),
		misses: r.Counter("sketchsp_service_cache_misses_total",
			"Requests that inserted a new plan cache entry."),
		builds: r.Counter("sketchsp_service_plan_builds_total",
			"Successful plan constructions (single-flight keeps builds <= misses)."),
		buildErrors: r.Counter("sketchsp_service_plan_build_errors_total",
			"Failed plan constructions."),
		rejections: r.Counter("sketchsp_service_shed_total",
			"Requests shed at the full admission queue (ErrOverloaded)."),
		cancels: r.Counter("sketchsp_service_canceled_total",
			"Requests that died on context deadline/cancel while queued, building, or executing."),
		inFlight: r.Gauge("sketchsp_service_in_flight",
			"Requests currently holding an admission slot."),
		queueDepth: r.Gauge("sketchsp_service_queue_depth",
			"Requests waiting for an admission slot."),
		latency: r.Histogram("sketchsp_service_request_seconds",
			"Completed request latency, admission queueing included."),
		queueWait: r.Histogram("sketchsp_service_queue_wait_seconds",
			"Admission-queue wait of requests that found no free slot."),
		plan: core.NewPlanMetrics(r),
	}
}
