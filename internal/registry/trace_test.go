package registry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sourcelda/internal/obs"
)

// TestRequestIDEcho: a well-formed client-supplied X-Request-Id is echoed
// verbatim; a malformed one is replaced with a minted ID; requests without
// one get a minted ID. Error responses carry the ID in both the header and
// the JSON body.
func TestRequestIDEcho(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	do := func(id, method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Valid client ID: echoed byte for byte.
	resp := do("client-id.42", "POST", "/v1/infer", `{"text":"pencil"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("infer status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "client-id.42" {
		t.Fatalf("valid client ID not echoed: got %q", got)
	}

	// Malformed client IDs (spaces, control bytes, overlong) are replaced
	// with a minted ID, never echoed back into logs and headers.
	for _, bad := range []string{"has space", strings.Repeat("x", 200), ".leading-dot"} {
		resp := do(bad, "POST", "/v1/infer", `{"text":"pencil"}`)
		got := resp.Header.Get("X-Request-Id")
		if got == bad || got == "" || !obs.ValidRequestID(got) {
			t.Fatalf("malformed ID %q: response carries %q, want a fresh valid ID", bad, got)
		}
	}

	// No client ID: one is minted.
	resp = do("", "POST", "/v1/infer", `{"text":"pencil"}`)
	if got := resp.Header.Get("X-Request-Id"); !obs.ValidRequestID(got) {
		t.Fatalf("minted ID %q is not valid", got)
	}

	// Error responses echo the ID in the header AND the JSON body.
	resp = do("err-trace-1", "POST", "/v1/models/nope/infer", `{"text":"pencil"}`)
	if resp.StatusCode != 404 {
		t.Fatalf("unknown model status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "err-trace-1" {
		t.Fatalf("error response header ID %q", got)
	}
	var errBody struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.RequestID != "err-trace-1" {
		t.Fatalf("error body request_id %q, want err-trace-1 (body error: %q)", errBody.RequestID, errBody.Error)
	}
}

// TestAccessLogTracesRequest is the tracing acceptance criterion end to
// end: a request with a known ID is traceable from the access log — with
// its per-stage durations — to the response header.
func TestAccessLogTracesRequest(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, Config{Logger: logger})

	req, err := http.NewRequest("POST", ts.URL+"/v1/infer", strings.NewReader(`{"text":"pencil ruler"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("infer status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-123" {
		t.Fatalf("response header ID %q", got)
	}

	// One access-log event carries the ID, the resolved model, and every
	// stage duration.
	var access map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if ev["msg"] == "request" && ev["request_id"] == "trace-me-123" {
			access = ev
			break
		}
	}
	if access == nil {
		t.Fatalf("no access-log event for trace-me-123:\n%s", logBuf.String())
	}
	for _, key := range []string{"method", "path", "status", "duration_ms",
		"model", "infer_ms", "render_ms"} {
		if _, ok := access[key]; !ok {
			t.Errorf("access log missing %q: %v", key, access)
		}
	}
	if access["model"] != "default" || access["status"] != float64(200) {
		t.Errorf("access log fields: %v", access)
	}
}

// TestSlowRequestLog: a request over the threshold logs at warning level
// with the threshold attached.
func TestSlowRequestLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	// Any real inference exceeds a 1ns threshold.
	ts, _ := newTestServer(t, Config{Logger: logger, SlowRequest: time.Nanosecond})
	if code, _ := postInfer(t, ts.URL+"/v1/infer", `{"text":"pencil"}`); code != 200 {
		t.Fatalf("infer status %d", code)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, `"msg":"slow request"`) || !strings.Contains(logged, `"level":"WARN"`) {
		t.Fatalf("no slow-request warning:\n%s", logged)
	}
	if !strings.Contains(logged, "threshold_ms") {
		t.Fatalf("slow-request warning missing threshold:\n%s", logged)
	}
}

// TestReadyzGatesOnModels: /readyz answers 503 until a model is loaded and
// 200 after, while /healthz reports liveness either way — the two probes
// must stay distinct so a cold replica is alive but not routable.
func TestReadyzGatesOnModels(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	url := newHTTPServer(t, reg)

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("empty registry readyz: %d %v", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("empty registry healthz: %d (liveness must not gate on models)", code)
	}

	if _, err := reg.Load(reg.DefaultModel(), "v1", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	code, body := get("/readyz")
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("loaded registry readyz: %d %v", code, body)
	}
	if body["default_model_loaded"] != true {
		t.Fatalf("readyz body: %v", body)
	}
}

// BenchmarkInferObsOverhead measures the serving path through the tracing
// middleware (Server.ServeHTTP) and on the bare mux beneath it. The wall-clock
// difference sits inside timer noise at a 35–42 µs request; the gate on the
// middleware's cost is TestTracingAllocs.
func BenchmarkInferObsOverhead(b *testing.B) {
	reg := newTestRegistry(b, Config{})
	if _, err := reg.Load(reg.DefaultModel(), "v1", trainModel(b, 7)); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(reg)
	payload := []byte(`{"text":"pencil ruler eraser pencil notebook paper baseball umpire pitcher baseball inning glove pencil paper notebook ruler eraser paper glove inning baseball umpire pitcher glove pencil ruler notebook eraser paper pencil"}`)
	for _, bc := range []struct {
		name string
		h    http.Handler
	}{{"TracingOn", srv}, {"TracingOff", srv.mux}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(payload))
				rec := httptest.NewRecorder()
				bc.h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// TestTracingAllocs is the tracing middleware's cost gate, noise-free by
// construction: the allocations one single-document request makes through
// Server.ServeHTTP (request ID, span, access-log guard) minus what the same
// request makes on the bare mux. The bound is the difference measured when
// the test was introduced; a new per-request allocation in the middleware
// fails it.
func TestTracingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	reg := newTestRegistry(t, Config{})
	if _, err := reg.Load(reg.DefaultModel(), "v1", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	payload := []byte(`{"text":"pencil ruler eraser pencil notebook paper baseball umpire pitcher glove"}`)
	allocs := func(h http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(payload)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		})
	}
	traced, bare := allocs(srv), allocs(srv.mux)
	t.Logf("allocs per request: traced %.0f, bare mux %.0f", traced, bare)
	if extra := traced - bare; extra > tracingAllocsBound {
		t.Fatalf("tracing middleware costs %.0f allocations per request, bound %d", extra, tracingAllocsBound)
	}
}

const tracingAllocsBound = 3
