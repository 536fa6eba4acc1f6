package registry

import (
	"io"
	"sort"
	"strconv"
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
// daemon's GET /metrics. The families are documented in docs/API.md.
func (r *Registry) WritePrometheus(w io.Writer) {
	infos := r.ListInfo()
	x := obs.NewExposition(w)
	// perModel declares a family holding one integer series per model.
	perModel := func(name, kind, help string, v func(ModelInfo) int64) {
		x.Family(name, kind, help)
		for _, mi := range infos {
			x.Int(v(mi), "model", mi.Name)
		}
	}

	x.Family("srcldad_models_loaded", "gauge", "Number of models currently loaded.")
	x.Int(int64(len(infos)))
	x.Family("srcldad_uptime_seconds", "gauge", "Seconds since the registry started.")
	x.Float(time.Since(r.start).Seconds())

	x.Family("srcldad_requests_total", "counter", "Inference requests by model and terminal HTTP status.")
	for _, mi := range infos {
		codes := make([]int, 0, len(mi.Stats.ByCode))
		for code := range mi.Stats.ByCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			x.Int(int64(mi.Stats.ByCode[code]), "model", mi.Name, "code", strconv.Itoa(code))
		}
	}
	perModel("srcldad_requests_shed_total", "counter", "Inference requests rejected with 503 because they would have exceeded the model's in-flight document bound.",
		func(mi ModelInfo) int64 { return int64(mi.Stats.Shed) })
	perModel("srcldad_queue_depth", "gauge", "Documents admitted and not yet answered.",
		func(mi ModelInfo) int64 { return int64(mi.QueueDepth) })
	perModel("srcldad_queue_capacity", "gauge", "Bound on the model's in-flight documents; a request that would exceed it is shed.",
		func(mi ModelInfo) int64 { return int64(mi.QueueCapacity) })
	perModel("srcldad_open_sessions", "gauge", "Inference sessions not yet fully drained (1 in steady state, 2+ during a hot swap).",
		func(mi ModelInfo) int64 { return int64(mi.OpenSessions) })
	perModel("srcldad_model_swaps_total", "counter", "Hot swaps of the model's active version.",
		func(mi ModelInfo) int64 { return int64(mi.Stats.Swaps) })
	x.Family("srcldad_request_latency_seconds", "histogram", "End-to-end inference request latency.")
	for _, mi := range infos {
		x.Histogram(mi.Stats.Latency, "model", mi.Name)
	}
	x.Family("srcldad_stage_latency_seconds", "histogram", "Per-document inference time (infer) and per-request render time (render).")
	for _, mi := range infos {
		// Only the replica-side stages render here; obs.StageGateway is
		// recorded by srcldagw against its own metrics and would be a
		// permanently empty series on a replica scrape.
		for _, stage := range obs.ServingStages() {
			x.Histogram(mi.Stats.Stages[stage], "model", mi.Name, "stage", stage.String())
		}
	}
	x.Family("srcldad_watcher_load_failures_total", "counter", "Bundle files the directory watcher failed to load, by model name.")
	for _, wf := range r.watcherFailures() {
		x.Int(int64(wf.count), "model", wf.name)
	}
	perModel("srcldad_model_mapped_bytes", "gauge", "Bytes of bundle file memory-mapped for the model (0 for heap-backed models).",
		func(mi ModelInfo) int64 { return mi.MappedBytes })
	if feeds := r.FeedInfos(); len(feeds) > 0 {
		writeFeedMetrics(x, feeds)
	}
	var totalMapped int64
	for _, mi := range infos {
		totalMapped += mi.MappedBytes
	}
	obs.WriteRuntimeMetrics(w, "srcldad", totalMapped)
}

// writeFeedMetrics renders the continuous-learning series for every model
// with a learner attached. Rendered only when at least one learner exists:
// a pure serving replica's scrape stays byte-identical to earlier releases.
func writeFeedMetrics(x *obs.Exposition, feeds []FeedInfo) {
	perFeed := func(name, kind, help string, v func(FeedInfo) int64) {
		x.Family(name, kind, help)
		for _, fi := range feeds {
			x.Int(v(fi), "model", fi.Model)
		}
	}
	perFeed("srcldad_feed_docs_total", "counter", "Fed documents appended to the model's learning chain.",
		func(fi FeedInfo) int64 { return int64(fi.Docs) })
	perFeed("srcldad_feed_dropped_total", "counter", "Fed documents skipped for having no tokens in the model vocabulary.",
		func(fi FeedInfo) int64 { return int64(fi.Dropped) })
	perFeed("srcldad_feed_shed_total", "counter", "Fed documents rejected with 429 because the ingest queue was full.",
		func(fi FeedInfo) int64 { return int64(fi.Shed) })
	perFeed("srcldad_feed_republish_total", "counter", "Bundle versions republished from the learning chain.",
		func(fi FeedInfo) int64 { return int64(fi.Republishes) })
	perFeed("srcldad_feed_compactions_total", "counter", "Compaction retrains of the learning chain.",
		func(fi FeedInfo) int64 { return int64(fi.Compactions) })
	perFeed("srcldad_feed_queue_depth", "gauge", "Fed documents accepted but not yet folded into the chain.",
		func(fi FeedInfo) int64 { return int64(fi.QueueDepth) })
	perFeed("srcldad_feed_queue_capacity", "gauge", "Bound of the model's feed ingest queue.",
		func(fi FeedInfo) int64 { return int64(fi.QueueCapacity) })
	perFeed("srcldad_feed_chain_docs", "gauge", "Documents in the model's learning chain (training corpus plus appended).",
		func(fi FeedInfo) int64 { return int64(fi.ChainDocs) })
	x.Family("srcldad_feed_update_seconds", "histogram", "Latency of folding one accepted feed batch into the chain.")
	for _, fi := range feeds {
		x.Histogram(fi.UpdateLatency, "model", fi.Model)
	}
}
