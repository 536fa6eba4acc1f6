package registry

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sourcelda"
)

// flatBundleBytes serializes a model in the flat zero-copy format for admin
// uploads and watcher drops.
func flatBundleBytes(t testing.TB, m *sourcelda.Model, name, version string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sourcelda.SaveBundleFlatNamed(&buf, m, name, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mappedModel writes flat bytes to disk and loads them through the
// memory-mapped path, skipping the test when the platform cannot map.
func mappedModel(t *testing.T, data []byte) *sourcelda.Model {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.bundle")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := sourcelda.LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
	return m
}

// TestPutFlatBundle: the admin API accepts a flat bundle body (sniffed by
// magic), serves it memory-mapped, and answers bit-for-bit like the same
// bytes loaded eagerly — including the topics endpoint, which materializes
// rows lazily from the mapped slab.
func TestPutFlatBundle(t *testing.T) {
	cfg := Config{}
	data := flatBundleBytes(t, trainModel(t, 7), "flat", "f1")
	oracle, err := sourcelda.LoadBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"pencil ruler notebook", "baseball umpire inning"}
	want := canonicalResponses(t, cfg, oracle, texts)

	reg := newTestRegistry(t, cfg)
	url := newHTTPServer(t, reg)
	req, err := http.NewRequest(http.MethodPut, url+"/v1/models/m", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT flat bundle: %d %s", resp.StatusCode, body)
	}
	info, err := reg.Info("m")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Mapped {
		t.Fatal("flat upload is not serving memory-mapped")
	}
	if info.Version != "f1" {
		t.Fatalf("version %q, want the bundle's embedded f1", info.Version)
	}
	for _, text := range texts {
		code, got := postInferRaw(t, url+"/v1/models/m/infer", text)
		if code != http.StatusOK {
			t.Fatalf("infer against flat model: %d %s", code, got)
		}
		if got != want[text] {
			t.Fatalf("mapped model answers differently from eager load on %q:\n%s\nwant: %s", text, got, want[text])
		}
	}
	tr, err := http.Get(url + "/v1/models/m/topics")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("topics against flat model: %d %s", tr.StatusCode, tbody)
	}
	if !strings.Contains(string(tbody), "pencil") && !strings.Contains(string(tbody), "baseball") {
		t.Fatalf("topics response carries no top words: %s", tbody)
	}
	// The listing exposes the mapped bit.
	lr, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(lr.Body)
	lr.Body.Close()
	if !strings.Contains(string(lbody), `"mapped":true`) {
		t.Fatalf("model listing does not report mapped: %s", lbody)
	}
}

// TestHotSwapUnderLoadFlat is TestHotSwapUnderLoad with both builds served
// from flat bundles: a memory-mapped A takes concurrent load, a flat-bundle
// PUT hot-swaps to B mid-flight, every response is bit-for-bit A's or B's
// answer, and the outgoing mapping survives until its session drains (A-era
// responses stay correct even though A's model was closed at swap time).
// Run with -race.
func TestHotSwapUnderLoadFlat(t *testing.T) {
	cfg := Config{}
	aBytes := flatBundleBytes(t, trainModel(t, 7), "m", "a")
	bBytes := flatBundleBytes(t, trainModelFree(t, 99, 1), "m", "b")
	texts := []string{
		"pencil ruler notebook",
		"baseball umpire inning glove",
		"pencil baseball paper pitcher",
		"eraser notebook paper pencil pencil",
	}
	oracleA, err := sourcelda.LoadBundle(bytes.NewReader(aBytes))
	if err != nil {
		t.Fatal(err)
	}
	oracleB, err := sourcelda.LoadBundle(bytes.NewReader(bBytes))
	if err != nil {
		t.Fatal(err)
	}
	wantA := canonicalResponses(t, cfg, oracleA, texts)
	wantB := canonicalResponses(t, cfg, oracleB, texts)
	for _, text := range texts {
		if wantA[text] == wantB[text] {
			t.Fatalf("models A and B agree on %q; the swap would be unobservable", text)
		}
	}

	reg := newTestRegistry(t, cfg)
	if _, err := reg.Load("m", "a", mappedModel(t, aBytes)); err != nil {
		t.Fatal(err)
	}
	if info, err := reg.Info("m"); err != nil || !info.Mapped {
		t.Fatalf("model A is not serving memory-mapped: %+v %v", info, err)
	}
	url := newHTTPServer(t, reg)

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
					t.Errorf("request failed during flat hot swap: %d %s", code, body)
					return
				}
				results <- obs{text: text, body: body}
				if i == 2 {
					firstOnce.Do(func() { close(firstWave) })
				}
			}
		}(text)
	}

	<-firstWave
	req, err := http.NewRequest(http.MethodPut, url+"/v1/models/m?version=b", bytes.NewReader(bBytes))
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
		t.Fatalf("flat swap PUT: %d %s", resp.StatusCode, swapBody)
	}

	wg.Wait()
	close(results)

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
	t.Logf("audited %d A-era and %d B-era responses across the flat swap", aCount, bCount)

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

	// The outgoing mapped session drains and releases; the incoming build is
	// itself mapped (the PUT path spools to disk and maps).
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := reg.Info("m")
		if err != nil {
			t.Fatal(err)
		}
		if info.OpenSessions == 1 {
			if info.Version != "b" || info.Stats.Swaps != 1 || !info.Mapped {
				t.Fatalf("post-drain info: %+v", info)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old mapped session never drained: %d open", info.OpenSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatcherLoadsFlatBundle: a flat bundle dropped into the watched
// directory auto-loads memory-mapped, a rewrite hot-swaps it, and removal
// unloads it — same lifecycle as JSON bundles.
func TestWatcherLoadsFlatBundle(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, Config{})
	w := NewWatcher(reg, dir, time.Second)
	m := trainModel(t, 7)
	base := time.Now().Add(-time.Hour)

	writeBundleFile(t, dir, "alpha", flatBundleBytes(t, m, "alpha", "f1"), base)
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	info, err := reg.Info("alpha")
	if err != nil || info.Version != "f1" {
		t.Fatalf("after drop: %+v %v", info, err)
	}
	if !info.Mapped {
		t.Fatal("watcher-loaded flat bundle is not serving memory-mapped")
	}
	if _, err := reg.Infer(t.Context(), "alpha", []string{"pencil ruler"}); err != nil {
		t.Fatalf("inference against watched flat model: %v", err)
	}

	writeBundleFile(t, dir, "alpha", flatBundleBytes(t, m, "alpha", "f2"), base.Add(time.Minute))
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if info, _ := reg.Info("alpha"); info.Version != "f2" || info.Stats.Swaps != 1 {
		t.Fatalf("after rewrite: version %q swaps %d", info.Version, info.Stats.Swaps)
	}

	if err := os.Remove(filepath.Join(dir, "alpha"+BundleExt)); err != nil {
		t.Fatal(err)
	}
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Info("alpha"); err == nil {
		t.Fatal("flat model still loaded after its file was removed")
	}
}

// TestWatcherDetectsSameSecondSameSizeRewrite is the size+mtime blind spot:
// a rewrite that lands within the filesystem's timestamp granularity and
// happens to keep the byte count identical must still hot-swap. The watcher
// marks freshly-stamped files racy and confirms "unchanged" against a content
// fingerprint, so the second scan sees through the identical stat.
func TestWatcherDetectsSameSecondSameSizeRewrite(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, Config{})
	w := NewWatcher(reg, dir, time.Second)
	m := trainModel(t, 7)
	// Same model, same-length version strings → byte-identical sizes.
	a := flatBundleBytes(t, m, "alpha", "va")
	b := flatBundleBytes(t, m, "alpha", "vb")
	if len(a) != len(b) {
		t.Fatalf("fixture bundles differ in size (%d vs %d); the test needs identical sizes", len(a), len(b))
	}
	if bytes.Equal(a, b) {
		t.Fatal("fixture bundles are identical; the rewrite would be a no-op")
	}

	// Both writes carry the same truncated-to-second timestamp — what two
	// rapid rewrites look like on a filesystem with one-second mtimes.
	stamp := time.Now().Truncate(time.Second)
	writeBundleFile(t, dir, "alpha", a, stamp)
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if info, err := reg.Info("alpha"); err != nil || info.Version != "va" {
		t.Fatalf("initial load: %+v %v", info, err)
	}
	writeBundleFile(t, dir, "alpha", b, stamp)
	if fi, err := os.Stat(filepath.Join(dir, "alpha"+BundleExt)); err != nil || fi.Size() != int64(len(a)) {
		t.Fatalf("rewrite changed the observable stat: %v %v", fi, err)
	}
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	info, err := reg.Info("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != "vb" || info.Stats.Swaps != 1 {
		t.Fatalf("same-second same-size rewrite missed: version %q swaps %d", info.Version, info.Stats.Swaps)
	}

	// An untouched file does not keep re-swapping once the fingerprint
	// matches, racy or not.
	if err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if info, _ := reg.Info("alpha"); info.Stats.Swaps != 1 {
		t.Fatalf("unchanged racy file re-swapped: %d swaps", info.Stats.Swaps)
	}
}
