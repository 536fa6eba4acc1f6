package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sourcelda"
	"sourcelda/internal/obs/obstest"
)

// fitLearnRuntime trains a warm chain over the standard two-topic fixture.
func fitLearnRuntime(t testing.TB, seed int64) *sourcelda.Runtime {
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
	rt, err := sourcelda.FitRuntime(c, k, sourcelda.Options{
		FreeTopics: 1,
		Lambda:     &sourcelda.LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 40,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLearnerEndToEnd is the continuous-learning acceptance test: a served
// model absorbs a document stream over POST /feed while concurrent infer
// load runs against it; the learner republishes, the watcher hot-swaps, no
// request fails across the swap, the post-swap model's held-out perplexity
// on the streamed documents improves over the pre-feed chain, and digest
// lineage survives both the incremental appends and the compaction retrain.
func TestLearnerEndToEnd(t *testing.T) {
	rt := fitLearnRuntime(t, 21)
	digest := rt.ChainDigest()

	stream := []string{
		"pencil pencil baseball ruler umpire notebook pitcher paper glove eraser",
		"baseball pencil inning ruler glove notebook umpire paper pitcher eraser",
	}
	p0, err := rt.HeldOutPerplexity(stream, 30, 10, 99)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	reg := New(Config{DefaultModel: "learn"})
	defer reg.Close()
	if err := reg.AttachLearner("learn", rt, LearnerConfig{
		ModelsDir:      dir,
		QueueSize:      64,
		RepublishEvery: 6,
		CompactAfter:   10,
		CompactSweeps:  5,
		FoldInSweeps:   5,
	}); err != nil {
		t.Fatal(err)
	}

	// The attach published an initial bundle synchronously; one scan serves it.
	w := NewWatcher(reg, dir, 100*time.Millisecond)
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Model("learn"); err != nil {
		t.Fatalf("initial publish not serving: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()

	// Concurrent inference load for the whole feed/republish/swap window.
	var failed atomic.Uint64
	var served atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(`{"text": "pencil ruler baseball umpire notebook"}`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/models/learn/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}()
	}

	// Stream documents through the feed endpoint until the learner has
	// republished at least twice (so at least one republish lands while the
	// infer load is running against an already-swapped build). 429 is
	// backpressure, not failure: honor Retry-After and resend.
	feedBody, _ := json.Marshal(map[string]any{"documents": stream})
	for fed := 0; fed < 10; {
		resp, err := http.Post(ts.URL+"/v1/models/learn/feed", "application/json", bytes.NewReader(feedBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			fed++
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("feed returned %d", resp.StatusCode)
		}
	}

	waitFor(t, "republish", func() bool {
		fi, err := reg.FeedInfo("learn")
		return err == nil && fi.Republishes >= 2 && fi.QueueDepth == 0
	})
	// The attach-time bundle is already version "feed-0", so the version
	// prefix alone can't prove a swap — wait for the swap counter while the
	// infer load is still running, so the zero-failures assertion below
	// genuinely spans a hot swap.
	waitFor(t, "hot swap to a republished version", func() bool {
		mi, err := reg.Info("learn")
		return err == nil && mi.Stats.Swaps >= 1 && strings.HasPrefix(mi.Version, "feed-") && mi.Version != "feed-0"
	})

	close(stop)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d inference requests failed across the hot swap (%d served)", n, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no inference requests served during the feed window")
	}

	fi, err := reg.FeedInfo("learn")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Docs != 20 || fi.Shed != 0 {
		t.Fatalf("feed stats docs=%d shed=%d, want 20 and 0", fi.Docs, fi.Shed)
	}
	if fi.Compactions < 1 {
		t.Fatal("compaction never ran")
	}

	// Digest lineage: the incrementally updated chain, its compaction
	// retrain, and the served bundle all carry the training digest.
	if rt.ChainDigest() != digest {
		t.Fatalf("chain digest drifted %s -> %s", digest, rt.ChainDigest())
	}
	mi, err := reg.Info("learn")
	if err != nil {
		t.Fatal(err)
	}
	if mi.Bundle.ChainDigest != digest {
		t.Fatalf("served bundle digest %s, want chain lineage %s", mi.Bundle.ChainDigest, digest)
	}
	if mi.Stats.Swaps < 1 {
		t.Fatal("watcher never hot-swapped the served model")
	}

	// The fed chain must explain its own stream better than the pre-feed
	// chain did.
	p1, err := rt.HeldOutPerplexity(stream, 30, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !(p1 < p0) {
		t.Fatalf("streamed docs' perplexity did not improve: before %v after %v", p0, p1)
	}
}

func TestFeedEndpointStatuses(t *testing.T) {
	rt := fitLearnRuntime(t, 7)
	dir := t.TempDir()
	reg := New(Config{})
	defer reg.Close()

	// A model without a learner answers 409; an unknown model 404.
	if _, err := reg.Load("static", "v1", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	if err := reg.AttachLearner("learn", rt, LearnerConfig{ModelsDir: dir, QueueSize: 2}); err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(reg, dir, time.Second)
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/v1/models/nope/feed", `{"text": "pencil"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d, want 404", resp.StatusCode)
	}
	if resp := post("/v1/models/static/feed", `{"text": "pencil"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("learner-less model: %d, want 409", resp.StatusCode)
	}
	if resp := post("/v1/models/learn/feed", `{"documents": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	resp := post("/v1/models/learn/feed", `{"text": "pencil ruler eraser"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feed: %d, want 202", resp.StatusCode)
	}
	var accepted struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Accepted != 1 {
		t.Fatalf("accepted %d docs, want 1", accepted.Accepted)
	}
}

// TestLearnerBackpressure drives the ingest queue to capacity and checks
// the whole-batch 429 path: Retry-After on the response, the rejection
// counted under srcldad_feed_shed_total, and no partial acceptance.
func TestLearnerBackpressure(t *testing.T) {
	rt := fitLearnRuntime(t, 3)
	reg := New(Config{})
	defer reg.Close()
	if err := reg.AttachLearner("learn", rt, LearnerConfig{
		ModelsDir: t.TempDir(),
		QueueSize: 4,
	}); err != nil {
		t.Fatal(err)
	}

	// Saturate: the updater drains at most one batch at a time, so pushing
	// far more than QueueSize from several goroutines must shed at least one
	// batch wholesale.
	var shedSeen atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				err := reg.Feed("learn", []string{"pencil ruler", "baseball glove", "eraser paper"})
				if errors.Is(err, ErrOverloaded) {
					shedSeen.Store(true)
				} else if err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !shedSeen.Load() {
		t.Fatal("queue of 4 absorbed 480 documents without shedding")
	}
	waitFor(t, "queue drain", func() bool {
		fi, err := reg.FeedInfo("learn")
		return err == nil && fi.QueueDepth == 0
	})
	fi, err := reg.FeedInfo("learn")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Shed == 0 || fi.Shed%3 != 0 {
		t.Fatalf("shed %d documents, want a nonzero multiple of the batch size 3", fi.Shed)
	}
	if (fi.Docs+fi.Shed)%3 != 0 {
		t.Fatalf("docs %d + shed %d is not whole batches", fi.Docs, fi.Shed)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	obstest.CheckExposition(t, out)
	for _, series := range []string{
		"srcldad_feed_docs_total{model=\"learn\"}",
		"srcldad_feed_shed_total{model=\"learn\"}",
		"srcldad_feed_republish_total{model=\"learn\"}",
		"srcldad_feed_update_seconds_count{model=\"learn\"}",
		"srcldad_feed_queue_capacity{model=\"learn\"} 4",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("metrics missing %s\n%s", series, out)
		}
	}

	// Feeding a model after its learner is gone answers ErrNoLearner; a
	// second learner under the same name is rejected while one is attached.
	if err := reg.AttachLearner("learn", rt, LearnerConfig{ModelsDir: t.TempDir()}); err == nil {
		t.Fatal("duplicate learner accepted")
	}
}

// TestLearnerCloseStopsFeeding pins shutdown: Close stops the updater, and
// feeding afterwards reports the learner gone rather than blocking.
func TestLearnerCloseStopsFeeding(t *testing.T) {
	rt := fitLearnRuntime(t, 5)
	reg := New(Config{})
	if err := reg.AttachLearner("learn", rt, LearnerConfig{ModelsDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Feed("learn", []string{"pencil ruler"}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if err := reg.Feed("learn", []string{"pencil"}); !errors.Is(err, ErrNoLearner) {
		t.Fatalf("feed after close: %v, want ErrNoLearner", err)
	}
	if err := reg.AttachLearner("learn2", rt, LearnerConfig{ModelsDir: t.TempDir()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach after close: %v, want ErrClosed", err)
	}
}
