package server

import (
	"coradd/internal/obs"
)

// srvObs bundles the per-request metric handles. With Config.Metrics nil
// every handle is nil and every update is an atomic no-op, so an
// unconfigured daemon serves exactly as before.
type srvObs struct {
	// requests counts responses by route and status code; latency is the
	// per-route request-latency histogram (log-linear 1µs–900s buckets,
	// the percentile source for the load-generator experiment); inflight
	// tracks concurrently executing requests.
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inflight *obs.Gauge
}

// initObs builds the handles and registers the collected families: the
// server's lifetime counters (the same atomics /statusz reports — one
// source of truth, exposed as Prometheus counters so rate() works) and
// the shared ObjectCache's counters. Call once from NewStarting, after
// fill() has created the cache.
func (s *Server) initObs() {
	r := s.cfg.Metrics
	s.metrics = srvObs{
		requests: r.CounterVec("coradd_http_requests_total", "Responses by route and status code.", "route", "code"),
		latency:  r.HistogramVec("coradd_http_request_seconds", "Request latency by route.", "route"),
		inflight: r.Gauge("coradd_http_inflight_requests", "Requests currently being served."),
	}
	r.CounterFunc("coradd_server_served_total", "Queries executed against the serving snapshot.",
		func() float64 { return float64(s.served.Load()) })
	r.CounterFunc("coradd_server_observed_total", "Observations consumed by the controller.",
		func() float64 { return float64(s.observed.Load()) })
	r.CounterFunc("coradd_server_dropped_total", "Observations lost to a full queue.",
		func() float64 { return float64(s.dropped.Load()) })
	r.CounterFunc("coradd_server_shed_total", "Requests refused by admission control (503).",
		func() float64 { return float64(s.shed.Load()) })
	r.CounterFunc("coradd_server_timeouts_total", "Requests cut by the handler deadline (504).",
		func() float64 { return float64(s.timeouts.Load()) })
	r.CounterFunc("coradd_server_panics_total", "Handler panics recovered into 500s.",
		func() float64 { return float64(s.panics.Load()) })
	r.GaugeFunc("coradd_server_observation_queue_depth", "Observations queued for the controller.",
		func() float64 { return float64(len(s.obs)) })

	cache := s.cfg.Adapt.Cache
	r.CounterFunc("coradd_cache_hits_total", "ObjectCache artifact hits.",
		func() float64 { return float64(cache.Snapshot().Hits) })
	r.CounterFunc("coradd_cache_misses_total", "ObjectCache artifact misses.",
		func() float64 { return float64(cache.Snapshot().Misses) })
	r.CounterFunc("coradd_cache_evictions_total", "ObjectCache LRU evictions.",
		func() float64 { return float64(cache.Snapshot().Evictions) })
	r.GaugeFunc("coradd_cache_used_bytes", "ObjectCache charged footprint.",
		func() float64 { return float64(cache.UsedBytes()) })
}
