package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sourcelda"
	"sourcelda/internal/obs"
)

// slowInfer is a fold-in schedule long enough (about a hundred milliseconds a
// document) that a test can act while requests are scoring.
var slowInfer = sourcelda.InferOptions{BurnIn: 2000000, Samples: 1}

// waitScoring blocks until n goroutines are inside Inferrer.InferBatch —
// past entry.score's Acquire, so each holds a pin on its session.
func waitScoring(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, fmt.Sprintf("%d requests scoring", n), func() bool {
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "sourcelda.(*Inferrer).InferBatch(") >= n
	})
}

// TestUnloadWithRequestsInFlight: Unload and Close never cut a scoring
// request off. Requests that pinned the session before the model went away
// finish 200 on it, later ones are refused, and the session drains once the
// last pinned request answers.
func TestUnloadWithRequestsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name   string
		retire func(*Registry) error
	}{
		{"unload", func(r *Registry) error { return r.Unload("m") }},
		{"close", func(r *Registry) error { r.Close(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := newTestRegistry(t, Config{Infer: slowInfer})
			if _, err := reg.Load("m", "v1", trainModel(t, 7)); err != nil {
				t.Fatal(err)
			}
			e, err := reg.lookup("m")
			if err != nil {
				t.Fatal(err)
			}
			url := newHTTPServer(t, reg)

			const inFlight = 3
			codes := make(chan int, inFlight)
			for i := 0; i < inFlight; i++ {
				go func() {
					code, _ := postInferRaw(t, url+"/v1/models/m/infer", "pencil ruler notebook")
					codes <- code
				}()
			}
			waitScoring(t, inFlight)
			if got := e.inflight.Load(); got != inFlight {
				t.Errorf("%d documents in flight, want %d", got, inFlight)
			}
			if err := tc.retire(reg); err != nil {
				t.Fatal(err)
			}
			if got := e.openSessions(); got != 1 {
				t.Errorf("%d open sessions while requests are scoring, want 1", got)
			}
			if code, body := postInferRaw(t, url+"/v1/models/m/infer", "pencil"); code != http.StatusNotFound {
				t.Errorf("request after the model went away: %d %s, want 404", code, body)
			}
			// A request that resolved the name before it went away, but pins
			// a session only now, finds none.
			if _, err := e.enqueue(t.Context(), nil, []string{"pencil"}); !errors.Is(err, ErrUnloaded) {
				t.Errorf("late enqueue: %v, want ErrUnloaded", err)
			}
			for i := 0; i < inFlight; i++ {
				if code := <-codes; code != http.StatusOK {
					t.Errorf("in-flight request answered %d, want 200", code)
				}
			}
			if open, depth := e.openSessions(), e.inflight.Load(); open != 0 || depth != 0 {
				t.Errorf("after the last answer: %d open sessions, %d in flight, want 0 and 0", open, depth)
			}
		})
	}
}

// TestCanceledRequestNotScored: a request whose caller is already gone is
// admitted, found canceled, and answered 499 without running fold-in.
func TestCanceledRequestNotScored(t *testing.T) {
	_, reg := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(`{"text":"pencil ruler"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	NewServer(reg).ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("canceled request answered %d, want 499 (%s)", rec.Code, rec.Body)
	}
	info, err := reg.Info("")
	if err != nil {
		t.Fatal(err)
	}
	if n := info.Stats.Stages[obs.StageInfer].Count; n != 0 {
		t.Fatalf("%d infer samples recorded for a canceled request", n)
	}
	if info.Stats.ByCode[499] != 1 || info.QueueDepth != 0 {
		t.Fatalf("by-code %v, queue depth %d, want one 499 and 0", info.Stats.ByCode, info.QueueDepth)
	}
}

// TestLoadStartsOnlyThePool: serving a model costs no goroutine of the
// registry's own — a loaded model runs exactly its session pool's workers,
// none when Workers is 1.
func TestLoadStartsOnlyThePool(t *testing.T) {
	for _, workers := range []int{1, 3} {
		model := trainModel(t, 7)
		reg := newTestRegistry(t, Config{Infer: sourcelda.InferOptions{Workers: workers}})
		// Goroutines winding down from earlier tests must be gone before the
		// count means anything.
		var before int
		waitFor(t, "goroutine count to settle", func() bool {
			prev := before
			before = runtime.NumGoroutine()
			return before == prev
		})
		if _, err := reg.Load("m", "v1", model); err != nil {
			t.Fatal(err)
		}
		want := 0
		if workers > 1 {
			want = workers
		}
		if got := runtime.NumGoroutine() - before; got != want {
			t.Errorf("Workers %d: Load started %d goroutines, want %d", workers, got, want)
		}
	}
}

// TestConcurrentSinglesMatchOneRequest: a document's response bytes do not
// depend on what it is scored beside — N single-text requests racing each
// other and one N-document request return the same per-document JSON.
func TestConcurrentSinglesMatchOneRequest(t *testing.T) {
	ts, _ := newTestServer(t, Config{Infer: sourcelda.InferOptions{Workers: 4}})
	texts := []string{
		"pencil ruler notebook",
		"baseball umpire inning glove",
		"pencil baseball paper pitcher",
		"eraser eraser notebook paper pencil",
		"glove pitcher pencil",
		"pencil ruler notebook",
	}
	post := func(body any) (int, []byte) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Error(err)
		}
		return resp.StatusCode, out.Bytes()
	}

	singles := make([]json.RawMessage, len(texts))
	var wg sync.WaitGroup
	for i, text := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post(map[string]string{"text": text})
			var out struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(body, &out); code != http.StatusOK || err != nil {
				t.Errorf("single %d: status %d, %v: %s", i, code, err, body)
			}
			singles[i] = out.Result
		}()
	}
	wg.Wait()

	code, body := post(map[string][]string{"documents": texts})
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &out); code != http.StatusOK || err != nil || len(out.Results) != len(texts) {
		t.Fatalf("documents request: status %d, %v: %s", code, err, body)
	}
	for i := range texts {
		if !bytes.Equal(singles[i], out.Results[i]) {
			t.Errorf("document %d:\nalone:    %s\ntogether: %s", i, singles[i], out.Results[i])
		}
	}
}

// TestUnknownOnlyDocumentIs422: a document with no in-vocabulary token fails
// the whole request with 422 naming the first such document, wherever it
// sits — decided from the scoring result, with no separate tokenization.
func TestUnknownOnlyDocumentIs422(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	const unknown, known = "zzz qqq xyzzy", "pencil ruler"
	for _, tc := range []struct {
		name  string
		body  any
		index int
	}{
		{"single text", map[string]string{"text": unknown}, 0},
		{"only document", map[string][]string{"documents": {unknown}}, 0},
		{"first", map[string][]string{"documents": {unknown, known, known}}, 0},
		{"middle", map[string][]string{"documents": {known, unknown, known}}, 1},
		{"last", map[string][]string{"documents": {known, known, unknown}}, 2},
		{"two of them", map[string][]string{"documents": {known, unknown, unknown}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			code, out := postInfer(t, ts.URL+"/v1/infer", string(data))
			want := fmt.Sprintf("document %d has no tokens in the model vocabulary", tc.index)
			if code != http.StatusUnprocessableEntity || out["error"] != want {
				t.Fatalf("status %d, error %q; want 422, %q", code, out["error"], want)
			}
		})
	}
	info, err := reg.Info("")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.ByCode[422] != 6 || info.Stats.Stages[obs.StageRender].Count != 0 || info.QueueDepth != 0 {
		t.Fatalf("by-code %v, %d renders, queue depth %d; want six 422s, 0, 0",
			info.Stats.ByCode, info.Stats.Stages[obs.StageRender].Count, info.QueueDepth)
	}
}
