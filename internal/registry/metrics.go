package registry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sourcelda/internal/obs"
)

// modelMetrics accumulates one model's serving counters. All methods are
// safe for concurrent use; counters survive hot swaps (they belong to the
// name, not the version). Latency is held in fixed-bucket histograms
// (obs.Histogram) rather than a sampled window: buckets aggregate correctly
// across scrapes and models, and never degrade under sustained load the way
// a sliding quantile window does once traffic outruns it.
type modelMetrics struct {
	mu       sync.Mutex
	byCode   map[int]uint64
	requests uint64
	shed     uint64
	swaps    uint64

	// latency is end-to-end request latency; stages break a request's time
	// into lifecycle segments (inference, render). The histograms are
	// lock-free, so the request path never contends with a scrape.
	latency *obs.Histogram
	stages  [obs.NumStages]*obs.Histogram
}

func newModelMetrics() *modelMetrics {
	m := &modelMetrics{
		byCode:  make(map[int]uint64),
		latency: obs.NewHistogram(nil),
	}
	for i := range m.stages {
		m.stages[i] = obs.NewHistogram(nil)
	}
	return m
}

// recordRequest counts one inference request's terminal status and latency.
func (m *modelMetrics) recordRequest(code int, d time.Duration) {
	m.latency.Observe(d.Seconds())
	m.mu.Lock()
	m.requests++
	m.byCode[code]++
	m.mu.Unlock()
}

// recordStage observes one lifecycle-stage duration.
func (m *modelMetrics) recordStage(s obs.Stage, d time.Duration) {
	if s < obs.NumStages {
		m.stages[s].Observe(d.Seconds())
	}
}

// recordShed counts one over-the-bound rejection. Deliberately separate from
// the 503 status count: an unload also answers 503, but only a request past
// the in-flight bound is "shed" — capacity alerting keys on this counter and
// must not fire on routine model retirements.
func (m *modelMetrics) recordShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed++
}

// recordSwap counts one hot swap.
func (m *modelMetrics) recordSwap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.swaps++
}

// MetricsSnapshot is a point-in-time copy of one model's counters.
type MetricsSnapshot struct {
	// Requests counts inference requests by any terminal status; ByCode
	// breaks it down by HTTP status code.
	Requests uint64
	ByCode   map[int]uint64
	// Shed counts requests rejected with 503 because admitting them would
	// have exceeded the in-flight document bound.
	Shed uint64
	// Swaps counts hot swaps of the model's active version.
	Swaps uint64
	// Latency is the cumulative request-latency histogram; Stages holds the
	// per-lifecycle-stage histograms, indexed by obs.Stage.
	Latency obs.HistogramSnapshot
	Stages  [obs.NumStages]obs.HistogramSnapshot
	// LatencyP50 and LatencyP99 are quantile estimates interpolated from
	// Latency's buckets (seconds); LatencySum/LatencyCount are its
	// cumulative sum and count.
	LatencyP50   float64
	LatencyP99   float64
	LatencySum   float64
	LatencyCount uint64
}

func (m *modelMetrics) snapshot() MetricsSnapshot {
	s := MetricsSnapshot{Latency: m.latency.Snapshot()}
	for i, h := range m.stages {
		s.Stages[i] = h.Snapshot()
	}
	s.LatencyP50 = s.Latency.Quantile(0.50)
	s.LatencyP99 = s.Latency.Quantile(0.99)
	s.LatencySum = s.Latency.Sum
	s.LatencyCount = s.Latency.Count
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Requests = m.requests
	s.ByCode = make(map[int]uint64, len(m.byCode))
	for code, n := range m.byCode {
		s.ByCode[code] = n
	}
	s.Shed = m.shed
	s.Swaps = m.swaps
	return s
}

// WritePrometheus renders every model's serving metrics, plus process-level
// gauges, in the Prometheus text exposition format — the body of the
// daemon's GET /metrics. Metric fields are documented in docs/API.md.
func (r *Registry) WritePrometheus(w io.Writer) {
	infos := r.ListInfo()

	fmt.Fprintf(w, "# HELP srcldad_models_loaded Number of models currently loaded.\n")
	fmt.Fprintf(w, "# TYPE srcldad_models_loaded gauge\n")
	fmt.Fprintf(w, "srcldad_models_loaded %d\n", len(infos))
	fmt.Fprintf(w, "# HELP srcldad_uptime_seconds Seconds since the registry started.\n")
	fmt.Fprintf(w, "# TYPE srcldad_uptime_seconds gauge\n")
	fmt.Fprintf(w, "srcldad_uptime_seconds %g\n", time.Since(r.start).Seconds())

	fmt.Fprintf(w, "# HELP srcldad_requests_total Inference requests by model and terminal HTTP status.\n")
	fmt.Fprintf(w, "# TYPE srcldad_requests_total counter\n")
	for _, mi := range infos {
		codes := make([]int, 0, len(mi.Stats.ByCode))
		for code := range mi.Stats.ByCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "srcldad_requests_total{model=%q,code=\"%d\"} %d\n", mi.Name, code, mi.Stats.ByCode[code])
		}
	}
	fmt.Fprintf(w, "# HELP srcldad_requests_shed_total Inference requests rejected with 503 because they would have exceeded the model's in-flight document bound.\n")
	fmt.Fprintf(w, "# TYPE srcldad_requests_shed_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "srcldad_requests_shed_total{model=%q} %d\n", mi.Name, mi.Stats.Shed)
	}
	fmt.Fprintf(w, "# HELP srcldad_queue_depth Documents admitted and not yet answered.\n")
	fmt.Fprintf(w, "# TYPE srcldad_queue_depth gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "srcldad_queue_depth{model=%q} %d\n", mi.Name, mi.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP srcldad_queue_capacity Bound on the model's in-flight documents; a request that would exceed it is shed.\n")
	fmt.Fprintf(w, "# TYPE srcldad_queue_capacity gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "srcldad_queue_capacity{model=%q} %d\n", mi.Name, mi.QueueCapacity)
	}
	fmt.Fprintf(w, "# HELP srcldad_open_sessions Inference sessions not yet fully drained (1 in steady state, 2+ during a hot swap).\n")
	fmt.Fprintf(w, "# TYPE srcldad_open_sessions gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "srcldad_open_sessions{model=%q} %d\n", mi.Name, mi.OpenSessions)
	}
	fmt.Fprintf(w, "# HELP srcldad_model_swaps_total Hot swaps of the model's active version.\n")
	fmt.Fprintf(w, "# TYPE srcldad_model_swaps_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "srcldad_model_swaps_total{model=%q} %d\n", mi.Name, mi.Stats.Swaps)
	}
	fmt.Fprintf(w, "# HELP srcldad_request_latency_seconds End-to-end inference request latency.\n")
	fmt.Fprintf(w, "# TYPE srcldad_request_latency_seconds histogram\n")
	for _, mi := range infos {
		mi.Stats.Latency.WritePrometheus(w, "srcldad_request_latency_seconds", fmt.Sprintf("model=%q", mi.Name))
	}
	fmt.Fprintf(w, "# HELP srcldad_stage_latency_seconds Per-document inference time (infer) and per-request render time (render).\n")
	fmt.Fprintf(w, "# TYPE srcldad_stage_latency_seconds histogram\n")
	for _, mi := range infos {
		// Only the replica-side stages render here; obs.StageGateway is
		// recorded by srcldagw against its own metrics and would be a
		// permanently empty series on a replica scrape.
		for _, stage := range obs.ServingStages() {
			mi.Stats.Stages[stage].WritePrometheus(w, "srcldad_stage_latency_seconds",
				fmt.Sprintf("model=%q,stage=%q", mi.Name, stage.String()))
		}
	}
	fmt.Fprintf(w, "# HELP srcldad_watcher_load_failures_total Bundle files the directory watcher failed to load, by model name.\n")
	fmt.Fprintf(w, "# TYPE srcldad_watcher_load_failures_total counter\n")
	for _, wf := range r.watcherFailures() {
		fmt.Fprintf(w, "srcldad_watcher_load_failures_total{model=%q} %d\n", wf.name, wf.count)
	}
	fmt.Fprintf(w, "# HELP srcldad_model_mapped_bytes Bytes of bundle file memory-mapped for the model (0 for heap-backed models).\n")
	fmt.Fprintf(w, "# TYPE srcldad_model_mapped_bytes gauge\n")
	var totalMapped int64
	for _, mi := range infos {
		totalMapped += mi.MappedBytes
		fmt.Fprintf(w, "srcldad_model_mapped_bytes{model=%q} %d\n", mi.Name, mi.MappedBytes)
	}
	if feeds := r.FeedInfos(); len(feeds) > 0 {
		writeFeedMetrics(w, feeds)
	}
	obs.WriteRuntimeMetrics(w, "srcldad", totalMapped)
}

// writeFeedMetrics renders the continuous-learning series for every model
// with a learner attached. Rendered only when at least one learner exists:
// a pure serving replica's scrape stays byte-identical to earlier releases.
func writeFeedMetrics(w io.Writer, feeds []FeedInfo) {
	fmt.Fprintf(w, "# HELP srcldad_feed_docs_total Fed documents appended to the model's learning chain.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_docs_total counter\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_docs_total{model=%q} %d\n", fi.Model, fi.Docs)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_dropped_total Fed documents skipped for having no tokens in the model vocabulary.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_dropped_total counter\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_dropped_total{model=%q} %d\n", fi.Model, fi.Dropped)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_shed_total Fed documents rejected with 429 because the ingest queue was full.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_shed_total counter\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_shed_total{model=%q} %d\n", fi.Model, fi.Shed)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_republish_total Bundle versions republished from the learning chain.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_republish_total counter\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_republish_total{model=%q} %d\n", fi.Model, fi.Republishes)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_compactions_total Compaction retrains of the learning chain.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_compactions_total counter\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_compactions_total{model=%q} %d\n", fi.Model, fi.Compactions)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_queue_depth Fed documents accepted but not yet folded into the chain.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_queue_depth gauge\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_queue_depth{model=%q} %d\n", fi.Model, fi.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_queue_capacity Bound of the model's feed ingest queue.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_queue_capacity gauge\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_queue_capacity{model=%q} %d\n", fi.Model, fi.QueueCapacity)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_chain_docs Documents in the model's learning chain (training corpus plus appended).\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_chain_docs gauge\n")
	for _, fi := range feeds {
		fmt.Fprintf(w, "srcldad_feed_chain_docs{model=%q} %d\n", fi.Model, fi.ChainDocs)
	}
	fmt.Fprintf(w, "# HELP srcldad_feed_update_seconds Latency of folding one accepted feed batch into the chain.\n")
	fmt.Fprintf(w, "# TYPE srcldad_feed_update_seconds histogram\n")
	for _, fi := range feeds {
		fi.UpdateLatency.WritePrometheus(w, "srcldad_feed_update_seconds", fmt.Sprintf("model=%q", fi.Model))
	}
}
