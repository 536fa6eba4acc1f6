package gateway

import (
	"io"
	"sort"
	"strconv"
	"time"

	"sourcelda/internal/obs"
)

// WritePrometheus writes the /metrics body: gateway-level request counters
// and latency, then per-backend try counters, health and ejection state,
// then process runtime gauges. docs/API.md lists the families;
// docs/OPERATIONS.md derives the alerting rules from them.
func (g *Gateway) WritePrometheus(w io.Writer) {
	stats := g.StatsSnapshot()
	infos := g.BackendInfos()
	x := obs.NewExposition(w)
	// perBackend declares a family holding one integer series per backend.
	perBackend := func(name, kind, help string, v func(BackendInfo) int64) {
		x.Family(name, kind, help)
		for _, bi := range infos {
			x.Int(v(bi), "backend", bi.ID)
		}
	}

	x.Family("srcldagw_backends", "gauge", "Configured backends.")
	x.Int(int64(len(infos)))
	var avail int64
	for _, bi := range infos {
		avail += b2i(bi.Healthy && !bi.Ejected)
	}
	x.Family("srcldagw_backends_available", "gauge", "Backends currently eligible for routed traffic (healthy and not ejected).")
	x.Int(avail)
	x.Family("srcldagw_uptime_seconds", "gauge", "Seconds since the gateway started.")
	x.Float(time.Since(g.start).Seconds())

	x.Family("srcldagw_requests_total", "counter", "Client-facing proxied requests by terminal HTTP status.")
	codes := make([]int, 0, len(stats.Requests))
	for code := range stats.Requests {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		x.Int(int64(stats.Requests[code]), "code", strconv.Itoa(code))
	}
	x.Family("srcldagw_requests_shed_total", "counter", "Requests rejected without a successful upstream response, by reason (rate_limit, no_backend, upstream_exhausted).")
	for _, reason := range sortedKeys(stats.Shed) {
		x.Int(int64(stats.Shed[reason]), "reason", reason)
	}
	x.Family("srcldagw_retries_total", "counter", "Extra upstream tries launched after a retryable failure.")
	x.Int(int64(stats.Retries))
	x.Family("srcldagw_hedges_total", "counter", "Extra upstream tries launched by the tail-latency hedge timer.")
	x.Int(int64(stats.Hedges))

	x.Family("srcldagw_request_latency_seconds", "histogram", "End-to-end client request latency through the gateway.")
	x.Histogram(stats.Latency)
	x.Family("srcldagw_stage_latency_seconds", "histogram", "Gateway-overhead portion of request latency (total minus winning upstream try).")
	x.Histogram(stats.GatewayStage, "stage", obs.StageGateway.String())

	x.Family("srcldagw_backend_requests_total", "counter", "Upstream tries by backend and terminal code (HTTP status, or error/timeout/canceled for transport outcomes).")
	for _, bi := range infos {
		for _, code := range sortedKeys(bi.ByCode) {
			x.Int(int64(bi.ByCode[code]), "backend", bi.ID, "code", code)
		}
	}
	perBackend("srcldagw_backend_ejections_total", "counter", "Passive outlier ejections of the backend.",
		func(bi BackendInfo) int64 { return int64(bi.Ejections) })
	perBackend("srcldagw_backend_probe_failures_total", "counter", "Failed active health probes of the backend.",
		func(bi BackendInfo) int64 { return int64(bi.ProbeFailures) })
	perBackend("srcldagw_backend_healthy", "gauge", "Active health-probe verdict (1 healthy, 0 unhealthy).",
		func(bi BackendInfo) int64 { return b2i(bi.Healthy) })
	perBackend("srcldagw_backend_ejected", "gauge", "Passive-ejection state (1 inside an ejection window).",
		func(bi BackendInfo) int64 { return b2i(bi.Ejected) })
	perBackend("srcldagw_backend_inflight", "gauge", "Upstream tries currently in flight to the backend.",
		func(bi BackendInfo) int64 { return int64(bi.Inflight) })
	x.Family("srcldagw_backend_latency_seconds", "histogram", "Upstream try latency by backend.")
	for _, bi := range infos {
		x.Histogram(bi.Latency, "backend", bi.ID)
	}
	obs.WriteRuntimeMetrics(w, "srcldagw", -1)
}

// b2i renders a boolean gauge.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys fixes the series order of a string-keyed counter map.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
