package gateway

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sourcelda/internal/obs/obstest"
)

// populated builds a gateway over three backends that are never dialed
// (active probing off) and drives its counters through the same record calls
// the proxy path makes, with fixed durations, so the scrape is a pure
// function of this function's text.
func populated(t *testing.T, ids ...string) *Gateway {
	t.Helper()
	cfg := Config{HealthInterval: -1}
	for _, id := range ids {
		cfg.Backends = append(cfg.Backends, BackendSpec{ID: id, URL: "http://127.0.0.1:1"})
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	for _, ms := range []int{1, 1, 2, 4, 9, 30, 700, 15000} {
		d := time.Duration(ms) * time.Millisecond
		g.metrics.latency.Observe(d.Seconds())
		g.metrics.stage.Observe((d / 16).Seconds())
	}
	g.metrics.mu.Lock()
	g.metrics.byCode[200] = 6
	g.metrics.byCode[429] = 1
	g.metrics.byCode[503] = 1
	g.metrics.retries, g.metrics.hedges = 3, 2
	g.metrics.mu.Unlock()
	g.recordShed("rate_limit")
	g.recordShed("upstream_exhausted")
	g.recordShed("upstream_exhausted")

	now := time.Now()
	b0, b1, b2 := g.backends[0], g.backends[1], g.backends[2]
	for _, ms := range []int{1, 2, 3, 8, 600} {
		b0.recordTry("200", time.Duration(ms)*time.Millisecond)
	}
	b0.recordTry("503", 400*time.Microsecond)
	b0.inflight.Store(2)
	b1.recordTry("200", 7*time.Millisecond)
	b1.recordTry("timeout", 10*time.Second)
	b1.recordTry("error", 200*time.Microsecond)
	b1.noteFailure(now, 1, time.Hour, time.Hour) // ejected for the test's lifetime
	b2.healthy.Store(false)
	b2.recordProbeFailure()
	b2.recordProbeFailure()
	b2.recordTry("canceled", 50*time.Millisecond)
	return g
}

func scrape(t *testing.T, g *Gateway) string {
	t.Helper()
	rr := httptest.NewRecorder()
	g.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); rr.Code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics = %d, Content-Type %q", rr.Code, ct)
	}
	return rr.Body.String()
}

// TestGoldenGatewayScrape pins srcldagw's /metrics body byte for byte
// (testdata/gateway.metrics, recorded at the parent of the obs.Exposition
// refactor): every header, the family and series order, every label set,
// every count and every deterministic float.
func TestGoldenGatewayScrape(t *testing.T) {
	text := scrape(t, populated(t, "r1", "r2", "r3"))
	obstest.CheckExposition(t, text)
	obstest.CheckGolden(t, filepath.Join("testdata", "gateway.metrics"), obstest.MaskVolatile(text))
}

// TestBackendIDLabelEscaping: New accepts any non-empty backend ID and
// -backends only trims its ends, so an ID may hold a tab, a quote or a
// backslash. The label value must use the exposition format's escapes (\\,
// \", \n and nothing else — a tab stays a tab), not Go's %q, which a
// Prometheus parser rejects.
func TestBackendIDLabelEscaping(t *testing.T) {
	text := scrape(t, populated(t, "r\t1", `q"b\c`, "line\nfeed"))
	obstest.CheckExposition(t, text)
	for _, want := range []string{
		"srcldagw_backend_inflight{backend=\"r\t1\"} 2\n",
		`srcldagw_backend_ejected{backend="q\"b\\c"} 1` + "\n",
		`srcldagw_backend_healthy{backend="line\nfeed"} 0` + "\n",
		`srcldagw_backend_latency_seconds_bucket{backend="q\"b\\c",le="+Inf"} 3` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestMetricsDocumented diffs the families srcldagw renders against the
// table in docs/API.md.
func TestMetricsDocumented(t *testing.T) {
	obstest.CheckDocumented(t, filepath.Join("..", "..", "docs", "API.md"), "### `srcldagw` metrics",
		scrape(t, populated(t, "r1", "r2", "r3")))
}
