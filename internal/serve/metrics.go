package serve

import (
	"sync/atomic"

	"vaq/internal/metrics"
	"vaq/internal/route"
)

// latencyBounds are the upper bounds (seconds) of the request-latency
// histogram buckets; an implicit +Inf bucket follows the last.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// serverMetrics is the serve plane's share of GET /metrics. The
// in-flight gauge is an atomic the instrumentation updates and the
// registry reads at scrape time.
type serverMetrics struct {
	reg      metrics.Registry
	inFlight atomic.Int64

	requests, responses, shed, hits, misses *metrics.Counter
	// Monte-Carlo trial throughput by kernel, counted on cache misses
	// (cache hits run no trials). trials/seconds is the observed
	// trials-per-second rate of each kernel.
	mcTrials, mcSeconds *metrics.Counter
	// Parameter-sweep throughput: points served and the compilations
	// the rebind engine avoided (every point after a sweep's first).
	sweepPoints, sweepSaved *metrics.Counter
	latency                 *metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{}
	r := &m.reg
	m.requests = r.Counter("nisqd_requests_total", "Requests received, by endpoint.", "endpoint")
	m.responses = r.Counter("nisqd_responses_total", "Responses sent, by status code.", "code")
	m.shed = r.Counter("nisqd_load_shed_total", "Requests refused with 429 by the concurrency limiter.")
	m.hits = r.Counter("nisqd_cache_hits_total", "Response-cache hits.")
	m.misses = r.Counter("nisqd_cache_misses_total", "Response-cache misses.")
	// Route cost-table cache: process-global (package route), not
	// per-server, so a fleet of synthetic large devices churning the
	// 1024-entry table shows up here instead of silently rebuilding
	// O(n²) tables per request.
	r.Func("counter", "nisqd_route_cache_hits_total", "Route cost-table cache hits (process-wide).",
		func() float64 { return float64(route.CacheStats().Hits) })
	r.Func("counter", "nisqd_route_cache_misses_total", "Route cost-table cache misses (table builds).",
		func() float64 { return float64(route.CacheStats().Misses) })
	r.Func("counter", "nisqd_route_cache_evictions_total", "Route cost-table entries dropped by the bound sweep.",
		func() float64 { return float64(route.CacheStats().Evictions) })
	r.Func("gauge", "nisqd_route_cache_entries", "Route cost-table entries currently cached.",
		func() float64 { return float64(route.CacheLen()) })
	m.mcTrials = r.Counter("nisqd_mc_trials_total", "Monte-Carlo trials simulated, by kernel.", "kernel")
	m.mcSeconds = r.FloatCounter("nisqd_mc_seconds_total", "Wall time spent simulating Monte-Carlo trials, by kernel.", "kernel")
	m.sweepPoints = r.Counter("nisqd_sweep_points_total", "Parameter-sweep points served.")
	m.sweepSaved = r.Counter("nisqd_sweep_compiles_saved_total", "Compilations avoided by compile-once/rebind-many sweeps.")
	r.Func("gauge", "nisqd_in_flight", "Requests currently being served.",
		func() float64 { return float64(m.inFlight.Load()) })
	m.latency = r.Histogram("nisqd_request_duration_seconds", "Request latency histogram.", latencyBounds)
	return m
}

// sweep records one served parameter sweep of n points.
func (m *serverMetrics) sweep(n int) {
	m.sweepPoints.Add(float64(n))
	if n > 1 {
		m.sweepSaved.Add(float64(n - 1))
	}
}
