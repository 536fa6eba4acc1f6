package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sourcelda/internal/obs/obstest"
)

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "text", "info")
	if err != nil {
		t.Fatalf("text logger: %v", err)
	}
	lg.Info("hello", "model", "news")
	if !strings.Contains(buf.String(), "model=news") {
		t.Fatalf("text output missing key: %q", buf.String())
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatalf("json logger: %v", err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "code", 503)
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("json output not a single JSON object (info not filtered?): %q", buf.String())
	}
	if ev["msg"] != "kept" || ev["code"] != float64(503) {
		t.Fatalf("unexpected event: %v", ev)
	}
}

func TestNewLoggerDefaultsAndErrors(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "", ""); err != nil {
		t.Fatalf("empty format/level should default: %v", err)
	}
	if _, err := NewLogger(&bytes.Buffer{}, "xml", "info"); err == nil {
		t.Fatal("unknown format should error")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "text", "loud"); err == nil {
		t.Fatal("unknown level should error")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	const n = 10000
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex digits", id)
		}
		if !ValidRequestID(id) {
			t.Fatalf("generated id %q fails ValidRequestID", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestValidRequestID(t *testing.T) {
	for _, ok := range []string{"a", "req-1", "0123456789abcdef", "A.b_c-d", strings.Repeat("x", 128)} {
		if !ValidRequestID(ok) {
			t.Errorf("ValidRequestID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "-leading", ".dot", "has space", "semi;colon", strings.Repeat("x", 129), "newline\n"} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true, want false", bad)
		}
	}
}

func TestTraceAccumulatesAndNilSafe(t *testing.T) {
	tr := NewTrace("abc")
	tr.Add(StageInfer, 2*time.Millisecond)
	tr.Add(StageInfer, 3*time.Millisecond)
	tr.Add(StageGateway, 7*time.Millisecond)
	if got := tr.Stage(StageInfer); got != 5*time.Millisecond {
		t.Fatalf("infer = %v, want 5ms", got)
	}
	d := tr.Durations()
	if d[StageGateway] != 7*time.Millisecond || d[StageRender] != 0 {
		t.Fatalf("durations = %v", d)
	}
	tr.SetModel("news")
	if tr.Model() != "news" {
		t.Fatalf("model = %q", tr.Model())
	}

	var nilTr *Trace
	nilTr.Add(StageInfer, time.Second) // must not panic
	nilTr.SetModel("x")
	if nilTr.Stage(StageInfer) != 0 || nilTr.Model() != "" {
		t.Fatal("nil trace should read as zero")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("ctx-id")
	ctx := WithTrace(t.Context(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
	if TraceFrom(t.Context()) != nil {
		t.Fatal("TraceFrom on a bare context should be nil")
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"infer", "render", "gateway"}
	for i, s := range Stages() {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.String(), want[i])
		}
	}
	wantServing := []string{"infer", "render"}
	for i, s := range ServingStages() {
		if s.String() != wantServing[i] {
			t.Errorf("serving stage %d = %q, want %q", i, s.String(), wantServing[i])
		}
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	wantCum := []uint64{2, 3, 4}
	for i, c := range s.Cumulative {
		if c != wantCum[i] {
			t.Fatalf("cumulative = %v, want %v", s.Cumulative, wantCum)
		}
	}
	if math.Abs(s.Sum-5.56) > 1e-9 {
		t.Fatalf("sum = %g", s.Sum)
	}
	// Median rank 2.5 lands in the first bucket (cumulative 2 < 2.5 is
	// false at bucket 0? cumulative[0]=2 < 2.5, so bucket 1).
	q := s.Quantile(0.5)
	if q < 0.01 || q > 0.1 {
		t.Fatalf("p50 = %g, want within (0.01, 0.1]", q)
	}
	// +Inf observations clamp to the top finite bound.
	if q99 := s.Quantile(0.99); q99 != 1 {
		t.Fatalf("p99 = %g, want clamp to 1", q99)
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	// Prometheus buckets are le (less-or-equal): an observation exactly on
	// a bound belongs to that bound's bucket.
	h := NewHistogram([]float64{1, 2})
	h.Observe(1)
	s := h.Snapshot()
	if s.Cumulative[0] != 1 {
		t.Fatalf("observation on bound not in le bucket: %v", s.Cumulative)
	}
}

func TestHistogramPrometheusRendering(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var buf bytes.Buffer
	x := NewExposition(&buf)
	x.Family("x_seconds", "histogram", "X.")
	x.Histogram(h.Snapshot(), "model", "m")
	out := buf.String()
	for _, want := range []string{
		`x_seconds_bucket{model="m",le="0.5"} 1`,
		`x_seconds_bucket{model="m",le="1"} 1`,
		`x_seconds_bucket{model="m",le="+Inf"} 2`,
		`x_seconds_sum{model="m"} 2.25`,
		`x_seconds_count{model="m"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}

	buf.Reset()
	x.Family("y_seconds", "histogram", "Y.")
	x.Histogram(h.Snapshot())
	if !strings.Contains(buf.String(), `y_seconds_bucket{le="0.5"} 1`) || !strings.Contains(buf.String(), "y_seconds_count 2") {
		t.Fatalf("unlabeled rendering wrong:\n%s", buf.String())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Cumulative[len(s.Cumulative)-1] != workers*per {
		t.Fatalf("top cumulative = %d, want %d", s.Cumulative[len(s.Cumulative)-1], workers*per)
	}
}

func TestTrainingRecorderJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := NewTrainingRecorder(&buf)
	ll := -1234.5
	ck := 0.012
	for i := 1; i <= 3; i++ {
		ev := SweepEvent{
			Time:         time.Date(2026, 8, 7, 0, 0, i, 0, time.UTC),
			Sweep:        i,
			TotalSweeps:  3,
			TokensPerSec: 1000,
			SweepSeconds: 0.5,
			Kernel:       "sparse",
		}
		if i == 2 {
			ev.LogLikelihood = &ll
			ev.CheckpointSeconds = &ck
			ev.CheckpointPath = "/tmp/ck"
		}
		r.Record(ev)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if lines == 1 {
			if _, present := ev["log_likelihood"]; present {
				t.Fatal("absent likelihood should be omitted, not zero")
			}
		}
		if lines == 2 && ev["log_likelihood"] != -1234.5 {
			t.Fatalf("line 2 likelihood = %v", ev["log_likelihood"])
		}
	}
	if lines != 3 {
		t.Fatalf("got %d JSONL lines, want 3", lines)
	}

	rr := httptest.NewRecorder()
	MetricsHandler(r.WritePrometheus).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	body := rr.Body.String()
	obstest.CheckExposition(t, body)
	for _, want := range []string{
		"srclda_sweep 3", "srclda_total_sweeps 3", "srclda_sweeps_total 3",
		"srclda_tokens_per_sec 1000", "srclda_checkpoints_total 1", "srclda_goroutines ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestTrainingRecorderWriteErrorDeferred(t *testing.T) {
	r := NewTrainingRecorder(failWriter{})
	r.Record(SweepEvent{Sweep: 1}) // must not panic or abort
	if r.Err() == nil {
		t.Fatal("write error should surface via Err")
	}
	var nilRec *TrainingRecorder
	nilRec.Record(SweepEvent{Sweep: 1})
	if nilRec.Err() != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	mux := NewDebugMux(func(w io.Writer) { WriteRuntimeMetrics(w, "test", 4096) })
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/runtime"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s = %d", path, rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/runtime", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	obstest.CheckExposition(t, rr.Body.String())
	if !strings.Contains(rr.Body.String(), "test_mapped_bundle_bytes 4096") {
		t.Fatalf("runtime metrics missing mapped bytes:\n%s", rr.Body.String())
	}
}
