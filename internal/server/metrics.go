package server

import (
	"net/http"
	"sync"
	"time"

	disclosure "repro"
	"repro/internal/obs"
)

// This file is the serving layer's observability seam: the HTTP
// middleware (per-route latency histograms, status-class counters,
// response-body bytes, an in-flight gauge) and the instance gauges (uptime, principals, cache
// counters, build identity) sampled at scrape time. Per-instance
// collectors live in the node's instance registry (Server.Metrics: the
// Server's own on a primary, the Follower's on a follower), so two
// servers in one process (tests, benches, a primary+follower
// pair) never collide; /metrics exposes the process-wide obs.Default
// registry followed by the instance registry.

// httpMetrics instruments a server's HTTP surface. Route labels come
// from http.Request.Pattern, which ServeMux sets on the request in
// place, so the outer middleware reads the matched pattern after the
// mux dispatched (requests that matched no pattern are labeled
// "other"). Routes are registered on first hit under a read-mostly
// lock; the per-request cost afterwards is one RLock and two atomic
// updates.
type httpMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge

	mu     sync.RWMutex
	routes map[string]*routeMetrics
}

// routeMetrics is one route's latency histogram, status-class counters
// (index status/100; 0 unused) and response-body byte counter.
type routeMetrics struct {
	latency   *obs.Histogram
	byClass   [6]*obs.Counter
	respBytes *obs.Counter
}

// statusClasses maps status/100 to the code label.
var statusClasses = [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// newHTTPMetrics builds the middleware collectors in reg.
func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		reg: reg,
		inFlight: reg.Gauge("disclosure_http_in_flight",
			"Requests currently being served."),
		routes: make(map[string]*routeMetrics),
	}
}

// route returns (registering on first hit) the collectors for a route.
func (hm *httpMetrics) route(pattern string) *routeMetrics {
	hm.mu.RLock()
	rm := hm.routes[pattern]
	hm.mu.RUnlock()
	if rm != nil {
		return rm
	}
	hm.mu.Lock()
	defer hm.mu.Unlock()
	if rm = hm.routes[pattern]; rm != nil {
		return rm
	}
	rm = &routeMetrics{
		latency: hm.reg.Histogram("disclosure_http_request_seconds",
			"HTTP request latency by route.", obs.LatencyBuckets, "route", pattern),
		respBytes: hm.reg.Counter("disclosure_http_response_bytes_total",
			"Response-body bytes written by route.", "route", pattern),
	}
	for class := 1; class <= 5; class++ {
		rm.byClass[class] = hm.reg.Counter("disclosure_http_requests_total",
			"HTTP requests by route and status class.", "route", pattern, "code", statusClasses[class])
	}
	hm.routes[pattern] = rm
	return rm
}

// statusRecorder captures the response status for the class counter and
// the body bytes written. The default status is 200: handlers that never
// call WriteHeader implicitly answer 200 on the first Write.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

// WriteHeader records the status and forwards it.
func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Write counts the body bytes and forwards them.
func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += n
	return n, err
}

// wrap instruments next with the in-flight gauge, per-route latency,
// status-class counters and response bytes.
func (hm *httpMetrics) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		hm.inFlight.Add(1)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		hm.inFlight.Add(-1)
		pattern := r.Pattern
		if pattern == "" {
			pattern = "other"
		}
		rm := hm.route(pattern)
		rm.latency.Observe(time.Since(t0).Seconds())
		rm.respBytes.Add(uint64(sr.bytes))
		if class := sr.status / 100; class >= 1 && class <= 5 {
			rm.byClass[class].Inc()
		}
	})
}

// registerInstanceGauges exposes the serving instance's sampled values:
// uptime, principal count, the query-memo and label/plan cache counters the
// Stats endpoint already reports, and the build identity. sys is a function
// because a follower's replica System is swapped on resync.
func registerInstanceGauges(reg *obs.Registry, sys func() *disclosure.System, start time.Time) {
	reg.GaugeFunc("disclosure_uptime_seconds",
		"Seconds since the serving instance was created.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("disclosure_principals",
		"Principals with an installed policy.",
		func() float64 { return float64(sys().Principals()) })
	reg.CounterFunc("disclosure_label_cache_hits_total",
		"Label-cache hits.", func() uint64 { return sys().Stats().Cache.Hits })
	reg.CounterFunc("disclosure_label_cache_misses_total",
		"Label-cache misses.", func() uint64 { return sys().Stats().Cache.Misses })
	reg.CounterFunc("disclosure_label_cache_evictions_total",
		"Label-cache evictions.", func() uint64 { return sys().Stats().Cache.Evictions })
	reg.CounterFunc("disclosure_label_cache_declined_total",
		"Label-cache misses not kept: the canonical form's first miss within the cache's admission window.",
		func() uint64 { return sys().Stats().Cache.Declined })
	reg.CounterFunc("disclosure_query_memo_hits_total",
		"Submitted query texts resolved by the source-text memo: neither parsed nor canonicalized.",
		func() uint64 { return sys().Stats().Memo.Hits })
	reg.CounterFunc("disclosure_query_memo_misses_total",
		"Submitted query texts the source-text memo did not hold: parsed and canonicalized.",
		func() uint64 { return sys().Stats().Memo.Misses })
	reg.CounterFunc("disclosure_query_memo_evictions_total",
		"Source-text memo evictions.", func() uint64 { return sys().Stats().Memo.Evictions })
	reg.CounterFunc("disclosure_query_memo_declined_total",
		"Source-text memo misses not kept: the text's first miss within the memo's admission window.",
		func() uint64 { return sys().Stats().Memo.Declined })
	reg.CounterFunc("disclosure_label_fold_exhausted_total",
		"Label-cache misses whose fold ran out of its step budget (labeled unminimized: sound, possibly higher).",
		func() uint64 { return sys().Stats().FoldExhausted })
	reg.CounterFunc("disclosure_plan_cache_hits_total",
		"Compiled-plan cache hits.", func() uint64 { return sys().Stats().Plans.Hits })
	reg.CounterFunc("disclosure_plan_cache_misses_total",
		"Compiled-plan cache misses.", func() uint64 { return sys().Stats().Plans.Misses })
	reg.CounterFunc("disclosure_plan_cache_evictions_total",
		"Compiled-plan cache evictions.", func() uint64 { return sys().Stats().Plans.Evictions })
	reg.CounterFunc("disclosure_plan_cache_declined_total",
		"Compiled-plan cache misses not kept: the canonical form's first miss within the cache's admission window.",
		func() uint64 { return sys().Stats().Plans.Declined })
	obs.ReadBuildInfo().Register(reg)
}
