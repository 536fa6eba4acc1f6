package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sourcelda"
)

// trainModel fits a tiny cleanly-separable model and round-trips it through
// a bundle (the full deployment path: train → SaveBundle → LoadBundle).
func trainModel(t testing.TB, seed int64) *sourcelda.Model {
	return trainModelFree(t, seed, 0)
}

// trainModelFree is trainModel with free topics: a nonzero count yields a
// model with a different topic set (and mixture width) over the same
// vocabulary — structurally distinguishable from trainModel's output, which
// hot-swap tests need.
func trainModelFree(t testing.TB, seed int64, freeTopics int) *sourcelda.Model {
	t.Helper()
	b := sourcelda.NewCorpusBuilder()
	for i := 0; i < 10; i++ {
		b.AddDocument("school", "pencil ruler eraser pencil notebook paper")
		b.AddDocument("ball", "baseball umpire pitcher baseball inning glove")
	}
	b.AddKnowledgeArticle("School Supplies",
		strings.Repeat("pencil pencil ruler eraser notebook paper paper ", 20))
	b.AddKnowledgeArticle("Baseball",
		strings.Repeat("baseball baseball umpire pitcher inning glove ", 20))
	c, k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sourcelda.Fit(c, k, sourcelda.Options{
		FreeTopics: freeTopics,
		Lambda:     &sourcelda.LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 60,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sourcelda.SaveBundle(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := sourcelda.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// bundleBytes serializes a model for admin-API uploads.
func bundleBytes(t testing.TB, m *sourcelda.Model, name, version string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sourcelda.SaveBundleNamed(&buf, m, name, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer stands up a registry with the default model preloaded
// (train → bundle → load → serve) and returns the running httptest server
// plus the registry for direct assertions.
func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *Registry) {
	t.Helper()
	reg := newTestRegistry(t, cfg)
	if _, err := reg.Load(reg.DefaultModel(), "v1", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(ts.Close) // before reg.Close: handlers drain first
	return ts, reg
}

// newTestRegistry builds an empty registry whose Close runs at cleanup.
func newTestRegistry(t testing.TB, cfg Config) *Registry {
	t.Helper()
	reg := New(cfg)
	t.Cleanup(reg.Close)
	return reg
}

func postInfer(t testing.TB, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("status %d: non-JSON response %q", resp.StatusCode, data)
	}
	return resp.StatusCode, out
}

func TestEndToEndInfer(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	code, out := postInfer(t, ts.URL+"/v1/infer", `{"text":"pencil ruler notebook eraser pencil"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	result, ok := out["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result object: %v", out)
	}
	top := result["top_topics"].([]any)
	if len(top) == 0 {
		t.Fatal("no top topics")
	}
	first := top[0].(map[string]any)
	if first["label"] != "School Supplies" {
		t.Fatalf("school text tagged %v", first["label"])
	}
	if first["source"] != true {
		t.Fatal("top topic should be a source topic")
	}
	mixture := result["mixture"].([]any)
	var sum float64
	for _, p := range mixture {
		sum += p.(float64)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("mixture sums to %v", sum)
	}
	if result["known_tokens"].(float64) != 5 {
		t.Fatalf("known_tokens = %v", result["known_tokens"])
	}
}

// TestNamedRouteAliasesDefault pins the backward-compatibility contract:
// /v1/infer and /v1/models/{default}/infer are the same model and return
// identical bytes for the same text.
func TestNamedRouteAliasesDefault(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	body := `{"text":"pencil ruler notebook"}`
	code1, unnamed := postInfer(t, ts.URL+"/v1/infer", body)
	code2, named := postInfer(t, ts.URL+"/v1/models/"+reg.DefaultModel()+"/infer", body)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("statuses %d/%d", code1, code2)
	}
	if fmt.Sprint(unnamed) != fmt.Sprint(named) {
		t.Fatalf("default alias diverged from named route:\n%v\n%v", unnamed, named)
	}
}

func TestBatchEndpointAndDeterminism(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	body := `{"documents":["baseball umpire glove","pencil paper ruler"]}`
	code, out := postInfer(t, ts.URL+"/v1/infer", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	results := out["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	// The same document must yield the same mixture on every request — and
	// the same mixture whether sent alone or inside a batch.
	code2, single := postInfer(t, ts.URL+"/v1/infer", `{"text":"baseball umpire glove"}`)
	if code2 != http.StatusOK {
		t.Fatalf("status %d", code2)
	}
	batchMix := results[0].(map[string]any)["mixture"].([]any)
	singleMix := single["result"].(map[string]any)["mixture"].([]any)
	for i := range batchMix {
		if batchMix[i] != singleMix[i] {
			t.Fatal("batch and single-document responses diverged for the same text")
		}
	}
}

// TestConcurrentInference: concurrent POSTs, each scoring on its own handler
// goroutine against the shared session, all succeed and deterministic
// responses hold under contention. Run with -race.
func TestConcurrentInference(t *testing.T) {
	ts, _ := newTestServer(t, Config{Infer: sourcelda.InferOptions{Workers: 4}})
	texts := []string{
		"pencil ruler notebook",
		"baseball umpire inning glove",
		"pencil baseball paper pitcher",
		"eraser eraser notebook paper pencil",
	}
	const perText = 8
	type answer struct {
		text    string
		mixture string
		err     error
	}
	var wg sync.WaitGroup
	replies := make(chan answer, len(texts)*perText)
	for _, text := range texts {
		for i := 0; i < perText; i++ {
			wg.Add(1)
			go func(text string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
					strings.NewReader(fmt.Sprintf(`{"text":%q}`, text)))
				if err != nil {
					replies <- answer{err: err}
					return
				}
				defer resp.Body.Close()
				data, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					replies <- answer{err: fmt.Errorf("status %d: %s", resp.StatusCode, data)}
					return
				}
				var out struct {
					Result struct {
						Mixture []float64 `json:"mixture"`
					} `json:"result"`
				}
				if err := json.Unmarshal(data, &out); err != nil {
					replies <- answer{err: err}
					return
				}
				replies <- answer{text: text, mixture: fmt.Sprint(out.Result.Mixture)}
			}(text)
		}
	}
	wg.Wait()
	close(replies)
	seen := make(map[string]string)
	for r := range replies {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if prev, ok := seen[r.text]; ok && prev != r.mixture {
			t.Fatalf("nondeterministic mixture for %q under concurrency", r.text)
		}
		seen[r.text] = r.mixture
	}
	if len(seen) != len(texts) {
		t.Fatalf("got %d distinct texts back, want %d", len(seen), len(texts))
	}
}

func TestInferRejections(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxDocs: 2})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"malformed", `{"text": `, http.StatusBadRequest},
		{"empty object", `{}`, http.StatusBadRequest},
		{"both fields", `{"text":"a","documents":["b"]}`, http.StatusBadRequest},
		{"empty text", `{"text":"   "}`, http.StatusBadRequest},
		{"empty documents", `{"documents":[]}`, http.StatusBadRequest},
		{"empty document entry", `{"documents":["pencil",""]}`, http.StatusBadRequest},
		{"too many documents", `{"documents":["a","b","c"]}`, http.StatusBadRequest},
		{"unknown field", `{"txet":"pencil"}`, http.StatusBadRequest},
		{"trailing garbage", `{"text":"pencil"} extra`, http.StatusBadRequest},
		{"unknown words only", `{"text":"zzz qqq xyzzy"}`, http.StatusUnprocessableEntity},
		{"unknown words in batch", `{"documents":["pencil ruler","zzz qqq"]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postInfer(t, ts.URL+"/v1/infer", tc.body)
			if code != tc.wantStatus {
				t.Fatalf("status %d, want %d (%v)", code, tc.wantStatus, out)
			}
			if _, ok := out["error"]; !ok {
				t.Fatalf("no error message in %v", out)
			}
		})
	}
	// Wrong method (the pattern mux answers 405 with an Allow header).
	resp, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/infer: status %d", resp.StatusCode)
	}
	// Unknown model → 404 naming what is loaded.
	code, out := postInfer(t, ts.URL+"/v1/models/nope/infer", `{"text":"pencil"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d (%v)", code, out)
	}
	if msg := out["error"].(string); !strings.Contains(msg, `"nope"`) || !strings.Contains(msg, "default") {
		t.Fatalf("unhelpful 404 message %q", msg)
	}
}

// brokenReader fails mid-body with a transport-style error — the "client
// disconnected while uploading" shape, which is not an oversized body.
type brokenReader struct{}

func (brokenReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestBodyReadErrorStatuses is the regression test for the blanket 413: the
// handler used to map EVERY body-read failure to 413 Request Entity Too
// Large. Only *http.MaxBytesError is that case; a mid-upload failure is a
// 400 (or 499 when the client is already gone), never a claim about size.
// Both body-reading routes share the reader; the feed route reads its body
// before looking up a learner, so it needs none here.
func TestBodyReadErrorStatuses(t *testing.T) {
	ts, reg := newTestServer(t, Config{MaxBody: 128})
	srv := NewServer(reg)
	for _, path := range []string{"/v1/infer", "/v1/models/default/feed"} {
		// Genuinely oversized body → 413 over the real HTTP path.
		big := fmt.Sprintf(`{"text":"%s"}`, strings.Repeat("pencil ", 200))
		code, out := postInfer(t, ts.URL+path, big)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413 (%v)", path, code, out)
		}

		// A body that fails mid-read for transport reasons → 400, not 413.
		req := httptest.NewRequest(http.MethodPost, path, brokenReader{})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s broken body: status %d, want 400 (%s)", path, rec.Code, rec.Body)
		}

		// Same failure with the request context already canceled (the client
		// hung up) → 499, the client-closed-request convention.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req = httptest.NewRequest(http.MethodPost, path, brokenReader{}).WithContext(ctx)
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 499 {
			t.Fatalf("%s canceled client: status %d, want 499 (%s)", path, rec.Code, rec.Body)
		}
	}
}

// TestClosedRegistryAnswers503: once the registry has shut down, model
// routes — infer, feed, topics, model info and PUT — report the shutdown
// (503) rather than blaming the model name (404) or the request (400).
func TestClosedRegistryAnswers503(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	bundle := bundleBytes(t, trainModel(t, 7), "other", "v2")
	reg.Close()
	do := func(method, path string, body io.Reader) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		method, path string
		body         io.Reader
	}{
		{http.MethodPost, "/v1/infer", strings.NewReader(`{"text":"pencil ruler"}`)},
		{http.MethodPost, "/v1/models/default/infer", strings.NewReader(`{"text":"pencil ruler"}`)},
		{http.MethodPost, "/v1/feed", strings.NewReader(`{"text":"pencil ruler"}`)},
		{http.MethodGet, "/v1/topics", nil},
		{http.MethodGet, "/v1/models/default", nil},
		{http.MethodPut, "/v1/models/other", bytes.NewReader(bundle)},
	} {
		if code := do(c.method, c.path, c.body); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s after Close: status %d, want 503", c.method, c.path, code)
		}
	}
}

func TestTopicsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/topics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topics struct {
		Model   string `json:"model"`
		Version string `json:"version"`
		Topics  []struct {
			Index    int      `json:"index"`
			Label    string   `json:"label"`
			Source   bool     `json:"source"`
			TopWords []string `json:"top_words"`
		} `json:"topics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topics); err != nil {
		t.Fatal(err)
	}
	if topics.Model != "default" || topics.Version != "v1" {
		t.Fatalf("identity %q/%q", topics.Model, topics.Version)
	}
	if len(topics.Topics) != 2 {
		t.Fatalf("%d topics", len(topics.Topics))
	}
	labels := map[string]bool{}
	for i, tp := range topics.Topics {
		if tp.Index != i {
			t.Fatalf("topics not in model order: %v", topics.Topics)
		}
		if !tp.Source || len(tp.TopWords) == 0 {
			t.Fatalf("topic %d malformed: %+v", i, tp)
		}
		labels[tp.Label] = true
	}
	if !labels["School Supplies"] || !labels["Baseball"] {
		t.Fatalf("labels %v", labels)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["topics"].(float64) != 2 {
		t.Fatalf("health %v", health)
	}
	if health["models"].(float64) != 1 || health["default_model"] != "default" {
		t.Fatalf("health %v", health)
	}
}

// TestBackendIDHeader: with Config.BackendID set, every response — success,
// error, and non-inference routes alike — carries the replica's identity as
// an X-Backend header, so a gateway can attribute answers to backends.
// Without it, the header is absent.
func TestBackendIDHeader(t *testing.T) {
	reg := newTestRegistry(t, Config{BackendID: "replica-7"})
	if _, err := reg.Load(reg.DefaultModel(), "v1", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	url := newHTTPServer(t, reg)
	checks := []struct {
		method, path, body string
		wantCode           int
	}{
		{"POST", "/v1/infer", `{"text":"pencil ruler"}`, 200},
		{"POST", "/v1/models/nosuch/infer", `{"text":"pencil"}`, 404},
		{"GET", "/v1/topics", "", 200},
		{"GET", "/healthz", "", 200},
		{"GET", "/readyz", "", 200},
		{"GET", "/metrics", "", 200},
	}
	for _, c := range checks {
		req, err := http.NewRequest(c.method, url+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.wantCode {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantCode)
		}
		if got := resp.Header.Get("X-Backend"); got != "replica-7" {
			t.Errorf("%s %s: X-Backend = %q, want %q", c.method, c.path, got, "replica-7")
		}
	}

	// Default configuration: no identity, no header.
	ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Backend"); got != "" {
		t.Errorf("X-Backend = %q without BackendID, want absent", got)
	}
}
