package registry

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"sourcelda/internal/obs"
	"sourcelda/internal/obs/obstest"
)

// scrapeMetrics fetches /metrics, checks the exposition is well formed, and
// parses it into metric{labels} → value.
func scrapeMetrics(t testing.TB, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	obstest.CheckExposition(t, string(body))
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[key] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsMatchLoad is the acceptance criterion's metrics half: the
// per-model request counters reported by /metrics equal what the load
// generator actually sent, per model and per status class.
func TestMetricsMatchLoad(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	if _, err := reg.Load("beta", "b1", trainModel(t, 21)); err != nil {
		t.Fatal(err)
	}

	const okDefault, okBeta, badBeta = 7, 5, 3
	for i := 0; i < okDefault; i++ {
		if code, _ := postInfer(t, ts.URL+"/v1/infer", `{"text":"pencil ruler"}`); code != 200 {
			t.Fatalf("default infer %d", code)
		}
	}
	for i := 0; i < okBeta; i++ {
		if code, _ := postInfer(t, ts.URL+"/v1/models/beta/infer", `{"documents":["baseball glove","pencil"]}`); code != 200 {
			t.Fatalf("beta infer %d", code)
		}
	}
	for i := 0; i < badBeta; i++ {
		if code, _ := postInfer(t, ts.URL+"/v1/models/beta/infer", `{"bad":`); code != 400 {
			t.Fatalf("beta bad infer %d", code)
		}
	}

	m := scrapeMetrics(t, ts.URL)
	checks := map[string]float64{
		`srcldad_requests_total{model="default",code="200"}`:     okDefault,
		`srcldad_requests_total{model="beta",code="200"}`:        okBeta,
		`srcldad_requests_total{model="beta",code="400"}`:        badBeta,
		`srcldad_requests_shed_total{model="beta"}`:              0,
		`srcldad_queue_capacity{model="beta"}`:                   256,
		`srcldad_open_sessions{model="beta"}`:                    1,
		`srcldad_model_swaps_total{model="beta"}`:                0,
		`srcldad_models_loaded`:                                  2,
		`srcldad_request_latency_seconds_count{model="default"}`: okDefault,
	}
	for key, want := range checks {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	// Nothing is in flight once every response is in.
	if got, ok := m[`srcldad_queue_depth{model="beta"}`]; !ok || got != 0 {
		t.Errorf("beta queue depth = %v (present %v), want 0", got, ok)
	}
	// The request-latency histogram is a true bucketed histogram: its +Inf
	// bucket equals its count, and the sum is positive for models that
	// served traffic.
	if inf := m[`srcldad_request_latency_seconds_bucket{model="default",le="+Inf"}`]; inf != okDefault {
		t.Errorf("latency +Inf bucket = %v, want %d", inf, okDefault)
	}
	if sum := m[`srcldad_request_latency_seconds_sum{model="default"}`]; sum <= 0 {
		t.Errorf("latency sum %v not positive", sum)
	}
	// Stage histograms count per scored document (render per request):
	// default served 1-doc requests, beta 2-doc requests.
	stageChecks := map[string]float64{
		`srcldad_stage_latency_seconds_count{model="default",stage="infer"}`:  okDefault,
		`srcldad_stage_latency_seconds_count{model="default",stage="render"}`: okDefault,
		`srcldad_stage_latency_seconds_count{model="beta",stage="infer"}`:     okBeta * 2,
		`srcldad_stage_latency_seconds_count{model="beta",stage="render"}`:    okBeta,
	}
	for key, want := range stageChecks {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	// Process runtime gauges ride along on the scrape.
	if g := m[`srcldad_goroutines`]; g < 1 {
		t.Errorf("goroutine gauge %v", g)
	}
	if mb, ok := m[`srcldad_model_mapped_bytes{model="default"}`]; !ok || mb != 0 {
		t.Errorf("mapped bytes for heap model = %v (present %v), want 0", mb, ok)
	}
}

// TestMetricsShedCounting: a request is admitted whole or not at all. One
// that would put more documents in flight than QueueSize is always 503 with
// nothing scored, counted once in both the by-code counter and the dedicated
// shed counter; one that fits is 200.
func TestMetricsShedCounting(t *testing.T) {
	body := `{"documents":["pencil ruler eraser","baseball glove"]}`

	ts, reg := newTestServer(t, Config{QueueSize: 1})
	code, out := postInfer(t, ts.URL+"/v1/infer", body)
	if code != http.StatusServiceUnavailable || out["error"] != ErrOverloaded.Error() {
		t.Fatalf("2 documents against a bound of 1: %d %v", code, out)
	}
	info, err := reg.Info("")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Shed != 1 || info.Stats.ByCode[503] != 1 || info.Stats.Requests != 1 {
		t.Fatalf("shed %d, by-code %v, want one shed 503", info.Stats.Shed, info.Stats.ByCode)
	}
	if n := info.Stats.Stages[obs.StageInfer].Count; n != 0 {
		t.Fatalf("%d documents scored for a shed request", n)
	}
	if info.QueueDepth != 0 || info.QueueCapacity != 1 {
		t.Fatalf("queue depth %d of %d after a shed request, want 0 of 1", info.QueueDepth, info.QueueCapacity)
	}
	// The bound counts documents, not requests: one document still fits.
	if code, out := postInfer(t, ts.URL+"/v1/infer", `{"text":"pencil ruler"}`); code != http.StatusOK {
		t.Fatalf("1 document against a bound of 1: %d %v", code, out)
	}

	ts, reg = newTestServer(t, Config{QueueSize: 2})
	if code, out := postInfer(t, ts.URL+"/v1/infer", body); code != http.StatusOK {
		t.Fatalf("2 documents against a bound of 2: %d %v", code, out)
	}
	if info, err = reg.Info(""); err != nil {
		t.Fatal(err)
	}
	if info.Stats.Shed != 0 || info.Stats.Stages[obs.StageInfer].Count != 2 {
		t.Fatalf("shed %d, scored %d, want 0 and 2", info.Stats.Shed, info.Stats.Stages[obs.StageInfer].Count)
	}
}

// TestLatencyHistogramCumulative: the histogram is cumulative forever —
// unlike the sliding window it replaced, sustained load cannot evict
// history — and the snapshot's derived quantiles stay within bucket bounds.
func TestLatencyHistogramCumulative(t *testing.T) {
	m := newModelMetrics()
	const n = 5000
	for i := 0; i < n; i++ {
		m.recordRequest(200, time.Millisecond)
	}
	m.recordRequest(200, time.Hour) // one extreme outlier
	s := m.snapshot()
	if s.LatencyCount != n+1 {
		t.Fatalf("count %d, want %d", s.LatencyCount, n+1)
	}
	if s.LatencySum < 3600 {
		t.Fatalf("sum %v lost the outlier", s.LatencySum)
	}
	// p50 stays in the millisecond bucket despite the outlier; p99 cannot
	// exceed the top finite bound (the +Inf bucket clamps).
	if s.LatencyP50 > 0.001 {
		t.Fatalf("p50 %v above the 1ms bucket bound", s.LatencyP50)
	}
	if top := s.Latency.Bounds[len(s.Latency.Bounds)-1]; s.LatencyP99 > top {
		t.Fatalf("p99 %v above the top finite bound %v", s.LatencyP99, top)
	}
	// Bucket counts are cumulative and end at the total.
	prev := uint64(0)
	for i, c := range s.Latency.Cumulative {
		if c < prev {
			t.Fatalf("bucket %d not cumulative: %d < %d", i, c, prev)
		}
		prev = c
	}
	if s.Latency.Cumulative[len(s.Latency.Cumulative)-1] != n {
		t.Fatalf("finite buckets hold %d, want %d (outlier in +Inf only)",
			s.Latency.Cumulative[len(s.Latency.Cumulative)-1], n)
	}
}

// TestWatcherFailureCounter: failed watcher loads are counted per model and
// rendered on /metrics.
func TestWatcherFailureCounter(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	reg.recordWatcherFailure("bad")
	reg.recordWatcherFailure("bad")
	reg.recordWatcherFailure("worse")
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`srcldad_watcher_load_failures_total{model="bad"} 2`,
		`srcldad_watcher_load_failures_total{model="worse"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in metrics:\n%s", want, out)
		}
	}
}
