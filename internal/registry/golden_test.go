package registry

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sourcelda/internal/obs"
	"sourcelda/internal/obs/obstest"
)

// metricsContentType is what every /metrics endpoint in the repository
// declares.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// populateServing loads two heap-backed models and drives their counters
// through the same record* calls the request path makes, with fixed
// durations, so the scrape is a pure function of this function's text.
func populateServing(t testing.TB, reg *Registry) {
	t.Helper()
	for _, name := range []string{"alpha", "beta"} {
		if _, err := reg.Load(name, "v1", trainModel(t, 7)); err != nil {
			t.Fatal(err)
		}
	}
	alpha, err := reg.lookup("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range []int{1, 2, 3, 7, 40, 900, 12000} {
		d := time.Duration(ms) * time.Millisecond
		alpha.metrics.recordRequest(200, d)
		alpha.metrics.recordStage(obs.StageInfer, d/2)
		if i%2 == 0 {
			alpha.metrics.recordStage(obs.StageRender, d/8)
		}
	}
	alpha.metrics.recordRequest(400, 300*time.Microsecond)
	alpha.metrics.recordRequest(422, 450*time.Microsecond)
	alpha.metrics.recordRequest(503, 100*time.Microsecond)
	alpha.metrics.recordShed()
	alpha.metrics.recordSwap()
	alpha.metrics.recordSwap()
	alpha.inflight.Store(3)
	t.Cleanup(func() { alpha.inflight.Store(0) })
	beta, err := reg.lookup("beta")
	if err != nil {
		t.Fatal(err)
	}
	beta.metrics.recordRequest(200, 5*time.Millisecond)
	reg.recordWatcherFailure("broken")
	reg.recordWatcherFailure("broken")
	reg.recordWatcherFailure("alpha")
}

// scrape GETs /metrics through the HTTP surface, pinning the content type on
// the way.
func scrape(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != metricsContentType {
		t.Fatalf("GET /metrics = %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	return string(body)
}

// TestGoldenServingScrape pins srcldad's /metrics body for a pure serving
// replica byte for byte (testdata/serving.metrics, recorded at the parent of
// the obs.Exposition refactor): every header, the family and series order,
// every label set, every count and every deterministic float.
func TestGoldenServingScrape(t *testing.T) {
	reg := newTestRegistry(t, Config{QueueSize: 32})
	populateServing(t, reg)
	text := scrape(t, newHTTPServer(t, reg))
	obstest.CheckExposition(t, text)
	obstest.CheckGolden(t, filepath.Join("testdata", "serving.metrics"), obstest.MaskVolatile(text))
}

// TestGoldenLearnerScrape is the same pin with a learner attached: the
// srcldad_feed_* families render after the serving ones.
func TestGoldenLearnerScrape(t *testing.T) {
	text := learnerScrape(t)
	obstest.CheckExposition(t, text)
	obstest.CheckGolden(t, filepath.Join("testdata", "learner.metrics"), obstest.MaskVolatile(text))
}

// TestMetricsDocumented diffs the families srcldad renders — a learner
// attached, so the feed families are among them — against the table in
// docs/API.md.
func TestMetricsDocumented(t *testing.T) {
	obstest.CheckDocumented(t, filepath.Join("..", "..", "docs", "API.md"), "## GET /metrics", learnerScrape(t))
}

func learnerScrape(t *testing.T) string {
	t.Helper()
	reg := newTestRegistry(t, Config{QueueSize: 32})
	populateServing(t, reg)
	if err := reg.AttachLearner("learn", fitLearnRuntime(t, 21), LearnerConfig{
		ModelsDir: t.TempDir(),
		QueueSize: 48,
	}); err != nil {
		t.Fatal(err)
	}
	reg.lmu.Lock()
	l := reg.learners["learn"]
	reg.lmu.Unlock()
	l.smu.Lock()
	l.docs, l.dropped, l.shed, l.republishes, l.compactions = 130, 4, 9, 3, 1
	l.smu.Unlock()
	for _, ms := range []int{4, 30, 30, 260} {
		l.updateLatency.Observe((time.Duration(ms) * time.Millisecond).Seconds())
	}
	return scrape(t, newHTTPServer(t, reg))
}

// TestGoldenResponses pins the /v1/infer and /v1/topics bodies of the
// fixture model, heap-backed and memory-mapped alike (testdata/*.json,
// recorded at the same parent): what a metrics or rendering refactor must
// not move.
func TestGoldenResponses(t *testing.T) {
	heap := trainModelFree(t, 7, 2)
	mapped := mappedModel(t, flatBundleBytes(t, heap, "m", "v1"))
	reg := newTestRegistry(t, Config{})
	if _, err := reg.Load("heap", "v1", heap); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("mapped", "v1", mapped); err != nil {
		t.Fatal(err)
	}
	url := newHTTPServer(t, reg)
	for _, name := range []string{"heap", "mapped"} {
		var got strings.Builder
		for _, text := range []string{
			"pencil ruler eraser notebook",
			"baseball umpire glove inning pitcher baseball",
			"pencil baseball paper glove zzz",
		} {
			code, body := postInferRaw(t, url+"/v1/models/"+name+"/infer", text)
			if code != http.StatusOK {
				t.Fatalf("%s infer: %d %s", name, code, body)
			}
			got.WriteString(body)
		}
		resp, err := http.Post(url+"/v1/models/"+name+"/infer", "application/json",
			strings.NewReader(`{"documents":["paper notebook pencil","glove glove inning"]}`))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s batch infer: %d %v", name, resp.StatusCode, err)
		}
		got.Write(batch)
		obstest.CheckGolden(t, filepath.Join("testdata", "infer.json"), got.String())

		resp, err = http.Get(url + "/v1/models/" + name + "/topics")
		if err != nil {
			t.Fatal(err)
		}
		topics, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s topics: %d %v", name, resp.StatusCode, err)
		}
		obstest.CheckGolden(t, filepath.Join("testdata", "topics.json"),
			strings.Replace(string(topics), `"model":"`+name+`"`, `"model":"m"`, 1))
	}
}
