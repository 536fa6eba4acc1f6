package registry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sourcelda"
)

func postInferRaw(t testing.TB, url, text string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json",
		strings.NewReader(fmt.Sprintf(`{"text":%q}`, text)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Every response — including those issued mid-swap under full load —
	// carries a request ID for log correlation.
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("response missing X-Request-Id header")
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// canonicalResponses scores every text against a fresh single-model daemon
// and returns the exact response bodies — the bit-for-bit oracle for what a
// daemon serving only that model says.
func canonicalResponses(t *testing.T, cfg Config, m *sourcelda.Model, texts []string) map[string]string {
	t.Helper()
	reg := newTestRegistry(t, cfg)
	if _, err := reg.Load("m", "only", m); err != nil {
		t.Fatal(err)
	}
	url := newHTTPServer(t, reg)
	out := make(map[string]string, len(texts))
	for _, text := range texts {
		code, body := postInferRaw(t, url+"/v1/models/m/infer", text)
		if code != http.StatusOK {
			t.Fatalf("oracle scoring failed: %d %s", code, body)
		}
		out[text] = body
	}
	return out
}

// TestHotSwapUnderLoad is the PR's acceptance criterion: one daemon serves
// model A under concurrent inference load, hot-swaps to model B mid-flight,
// and
//
//   - zero requests fail or are dropped across the swap;
//   - every response is bit-for-bit either A's answer or B's answer — no
//     torn hybrid ever escapes;
//   - once the swap is acknowledged, responses match a fresh B-only daemon
//     bit-for-bit;
//   - the old model's session fully drains and releases (open sessions
//     returns to 1) without the request path ever blocking on it.
//
// Run with -race.
func TestHotSwapUnderLoad(t *testing.T) {
	cfg := Config{}
	modelA := trainModel(t, 7)
	// B has an extra free topic: a structurally different model (3-wide
	// mixtures vs 2) over the same vocabulary, so A- and B-era responses
	// are always distinguishable while no text ever 422s.
	modelB := trainModelFree(t, 99, 1)
	texts := []string{
		"pencil ruler notebook",
		"baseball umpire inning glove",
		"pencil baseball paper pitcher",
		"eraser notebook paper pencil pencil",
	}
	wantA := canonicalResponses(t, cfg, modelA, texts)
	wantB := canonicalResponses(t, cfg, modelB, texts)
	for _, text := range texts {
		if wantA[text] == wantB[text] {
			t.Fatalf("models A and B agree on %q; the swap would be unobservable", text)
		}
	}

	reg := newTestRegistry(t, cfg)
	if _, err := reg.Load("m", "a", modelA); err != nil {
		t.Fatal(err)
	}
	url := newHTTPServer(t, reg)

	// Load generators: each goroutine hammers one text and records every
	// response body, so we can audit the full stream afterwards.
	type obs struct {
		text string
		body string
	}
	const perText = 30
	var wg sync.WaitGroup
	results := make(chan obs, len(texts)*perText)
	firstWave := make(chan struct{})
	var firstOnce sync.Once
	for _, text := range texts {
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			for i := 0; i < perText; i++ {
				code, body := postInferRaw(t, url+"/v1/models/m/infer", text)
				if code != http.StatusOK {
					t.Errorf("request failed during hot swap: %d %s", code, body)
					return
				}
				results <- obs{text: text, body: body}
				if i == 2 {
					// Enough pre-swap traffic observed; let the swap begin.
					firstOnce.Do(func() { close(firstWave) })
				}
			}
		}(text)
	}

	// Hot-swap to B in the middle of the load.
	<-firstWave
	req, err := http.NewRequest(http.MethodPut, url+"/v1/models/m?version=b",
		strings.NewReader(string(bundleBytes(t, modelB, "m", ""))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap PUT: %d %s", resp.StatusCode, swapBody)
	}

	wg.Wait()
	close(results)

	// Audit the stream: every single response is exactly A's or B's answer.
	var aCount, bCount int
	for r := range results {
		switch r.body {
		case wantA[r.text]:
			aCount++
		case wantB[r.text]:
			bCount++
		default:
			t.Fatalf("response for %q matches neither model:\n%s\nA: %s\nB: %s",
				r.text, r.body, wantA[r.text], wantB[r.text])
		}
	}
	if total := aCount + bCount; total != len(texts)*perText {
		t.Fatalf("%d responses audited, want %d (requests were dropped)", total, len(texts)*perText)
	}
	if aCount == 0 {
		t.Fatal("no pre-swap responses observed; the swap raced ahead of the load")
	}
	if bCount == 0 {
		t.Fatal("no post-swap responses observed; the swap never took effect")
	}
	t.Logf("audited %d A-era and %d B-era responses", aCount, bCount)

	// After the swap is acknowledged, the daemon answers exactly like a
	// fresh B-only daemon — for every text, bit for bit.
	for _, text := range texts {
		code, body := postInferRaw(t, url+"/v1/models/m/infer", text)
		if code != http.StatusOK {
			t.Fatalf("post-swap request failed: %d", code)
		}
		if body != wantB[text] {
			t.Fatalf("post-swap response for %q diverges from a fresh B-only daemon:\n%s\nwant: %s",
				text, body, wantB[text])
		}
	}

	// The old session drains: its refcount releases the pool and the
	// open-sessions gauge returns to 1. Poll briefly — draining completes
	// as soon as the last A-era request finishes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := reg.Info("m")
		if err != nil {
			t.Fatal(err)
		}
		if info.OpenSessions == 1 {
			if info.Version != "b" || info.Stats.Swaps != 1 {
				t.Fatalf("post-drain info: %+v", info)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old session never drained: %d open", info.OpenSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Metrics account for every request the generators sent (plus the
	// 4 post-swap verification requests), with zero shed.
	info, err := reg.Info("m")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(texts)*perText + len(texts))
	if info.Stats.Requests != want || info.Stats.ByCode[200] != want {
		t.Fatalf("metrics requests %d (200s %d), want %d", info.Stats.Requests, info.Stats.ByCode[200], want)
	}
	if info.Stats.Shed != 0 {
		t.Fatalf("%d requests shed during swap", info.Stats.Shed)
	}

	// Observability reconciliation: the stage histograms were hammered by
	// concurrent recording across the swap (run with -race), yet every
	// single-document 200 passed through both stages exactly once — the
	// histogram counts must equal the generator's request count, no samples
	// lost or duplicated.
	scraped := scrapeMetrics(t, url)
	total := float64(want)
	if got := scraped[`srcldad_requests_total{model="m",code="200"}`]; got != total {
		t.Errorf("requests_total = %v, want %v", got, total)
	}
	if got := scraped[`srcldad_request_latency_seconds_count{model="m"}`]; got != total {
		t.Errorf("request latency histogram count = %v, want %v", got, total)
	}
	for _, stage := range []string{"infer", "render"} {
		key := fmt.Sprintf(`srcldad_stage_latency_seconds_count{model="m",stage=%q}`, stage)
		if got := scraped[key]; got != total {
			t.Errorf("%s = %v, want %v (stage recording diverged from requests_total)", key, got, total)
		}
	}
}

// TestSwapKeepsQueueAndMetrics: a swap must not reset the entry's metrics —
// counters belong to the model name, not the build.
func TestSwapKeepsQueueAndMetrics(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	if code, _ := postInfer(t, ts.URL+"/v1/infer", `{"text":"pencil"}`); code != 200 {
		t.Fatal("pre-swap request failed")
	}
	if _, err := reg.Load(reg.DefaultModel(), "v2", trainModel(t, 99)); err != nil {
		t.Fatal(err)
	}
	info, err := reg.Info("")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Requests != 1 {
		t.Fatalf("swap reset the request counter: %d", info.Stats.Requests)
	}
	if info.Version != "v2" || info.Stats.Swaps != 1 {
		t.Fatalf("info %+v", info)
	}
	if code, _ := postInfer(t, ts.URL+"/v1/infer", `{"text":"pencil"}`); code != 200 {
		t.Fatal("post-swap request failed")
	}
}
