package sourcelda

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func fitFacadeModel(t *testing.T) *Model {
	t.Helper()
	c, k := buildFixture(t)
	m, err := Fit(c, k, Options{
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 40,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameInference(a, b *DocumentInference) bool {
	if a.KnownTokens != b.KnownTokens || a.UnknownTokens != b.UnknownTokens ||
		len(a.Topics) != len(b.Topics) {
		return false
	}
	for i := range a.Topics {
		if math.Float64bits(a.Topics[i]) != math.Float64bits(b.Topics[i]) {
			return false
		}
	}
	return true
}

// TestFlatBundleMatchesJSONBundle is the flat format's core guarantee at the
// facade: the flat and JSON bundles of the same model are interchangeable —
// identical provenance, identical topics, and bit-identical inference, on
// both the eager and the memory-mapped load paths.
func TestFlatBundleMatchesJSONBundle(t *testing.T) {
	m := fitFacadeModel(t)
	var jsonBuf, flatBuf bytes.Buffer
	if err := SaveBundleNamed(&jsonBuf, m, "school", "v3"); err != nil {
		t.Fatal(err)
	}
	if err := SaveBundleFlatNamed(&flatBuf, m, "school", "v3"); err != nil {
		t.Fatal(err)
	}

	jm, err := LoadBundle(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fm, err := LoadBundle(bytes.NewReader(flatBuf.Bytes())) // sniffed by magic
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	path := filepath.Join(t.TempDir(), "school.bundle")
	if err := os.WriteFile(path, flatBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	ji := jm.BundleInfo()
	for _, loaded := range []*Model{fm, mapped} {
		li := loaded.BundleInfo()
		if li.Name != ji.Name || li.Version != ji.Version ||
			li.ChainDigest != ji.ChainDigest || !li.TrainedAt.Equal(ji.TrainedAt) {
			t.Fatalf("BundleInfo differs between formats: %+v vs %+v", li, ji)
		}
		if loaded.NumTopics() != jm.NumTopics() {
			t.Fatal("topic count differs between formats")
		}
		jt, lt := jm.Topics(), loaded.Topics()
		for i := range jt {
			if jt[i].Label != lt[i].Label {
				t.Fatalf("topic %d label differs: %q vs %q", i, jt[i].Label, lt[i].Label)
			}
			jw, lw := jt[i].TopWords(5), lt[i].TopWords(5)
			for j := range jw {
				if jw[j] != lw[j] {
					t.Fatalf("topic %d top words differ between formats", i)
				}
			}
		}
	}

	texts := []string{
		"pencil ruler notebook",
		"baseball umpire inning",
		"paper glove pitcher eraser",
	}
	opts := InferOptions{Seed: 4}
	for _, text := range texts {
		want, err := jm.Infer(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, loaded := range []*Model{fm, mapped} {
			got, err := loaded.Infer(text, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInference(want, got) {
				t.Fatalf("flat-loaded model infers differently on %q", text)
			}
		}
	}
	wantBatch, err := jm.InferBatch(texts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []*Model{fm, mapped} {
		gotBatch, err := loaded.InferBatch(texts, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantBatch {
			if !sameInference(wantBatch[i], gotBatch[i]) {
				t.Fatalf("batch document %d differs between formats", i)
			}
		}
	}
}

// TestMappedModelLifetime pins down the unmap discipline: closing a mapped
// model (a hot swap) while batches are in flight must not release the
// mapping; the mapping goes away only when the drained inference session
// closes, and never under a held pin. Run with -race this also proves the
// refcounting is data-race-free.
func TestMappedModelLifetime(t *testing.T) {
	m := fitFacadeModel(t)
	path := filepath.Join(t.TempDir(), "m.bundle")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveBundleFlatNamed(f, m, "m", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Mapped() {
		t.Skip("mmap unavailable on this platform; lifetime path not exercised")
	}
	inf, err := loaded.NewInferrer(InferOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"pencil ruler notebook", "baseball umpire inning"}
	want := inf.InferBatch(texts)

	if !inf.Acquire() {
		t.Fatal("could not pin a fresh inferrer")
	}
	// Close the model (what a hot swap does to the outgoing version) while
	// batches are in flight on its session.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inf.InferBatch(texts)
		}()
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if loaded.backing.fb.Closed() {
		t.Fatal("mapping released while the session was pinned")
	}
	// The pinned session still serves — from mapped pages, bit-identically.
	got := inf.InferBatch(texts)
	for i := range want {
		if !sameInference(want[i], got[i]) {
			t.Fatalf("document %d differs after the owner closed", i)
		}
	}
	inf.Close()
	if loaded.backing.fb.Closed() {
		t.Fatal("mapping released before the last pin was dropped")
	}
	inf.Release()
	if !loaded.backing.fb.Closed() {
		t.Fatal("mapping not released after the drained session closed")
	}
	// A fully closed mapped model refuses new sessions instead of serving
	// dangling pages.
	if _, err := loaded.NewInferrer(InferOptions{}); err == nil {
		t.Fatal("NewInferrer succeeded on a closed mapped model")
	}
	// Topic metadata survives the unmap (it lives on the heap), but word
	// distributions can no longer be materialized and render empty instead of
	// faulting on released pages.
	tops := loaded.Topics()
	if len(tops) != loaded.NumTopics() {
		t.Fatal("topic metadata lost after unmap")
	}
	if words := tops[0].TopWords(3); len(words) != 0 {
		t.Fatal("top words materialized from an unmapped model")
	}
}

// TestSaveBundleFlatRejectsFlatLoadedModel: a flat-loaded model carries no
// training mixtures or knowledge source, so re-saving it must fail loudly
// rather than write a lossy bundle.
func TestSaveBundleFlatRejectsFlatLoadedModel(t *testing.T) {
	m := fitFacadeModel(t)
	var flatBuf bytes.Buffer
	if err := SaveBundleFlat(&flatBuf, m); err != nil {
		t.Fatal(err)
	}
	fm, err := LoadBundle(bytes.NewReader(flatBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	var out bytes.Buffer
	if err := SaveBundleFlat(&out, fm); err == nil {
		t.Fatal("re-saving a flat-loaded model accepted")
	}
	if err := SaveBundle(&out, fm); err == nil {
		t.Fatal("JSON-saving a flat-loaded model accepted")
	}
}

// TestTopTopicsMaterializesNoPhi: ranking a document's mixture on a mapped
// model — all an inference response needs — must leave every φ row
// unmaterialized (each is an O(V) strided gather and a heap copy kept for
// the model's life). Only TopWords / Probability on a returned Topic resolve
// a row, and then only that topic's.
func TestTopTopicsMaterializesNoPhi(t *testing.T) {
	var flatBuf bytes.Buffer
	if err := SaveBundleFlat(&flatBuf, fitFacadeModel(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bundle")
	if err := os.WriteFile(path, flatBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var top []Topic
	for _, text := range []string{"pencil ruler notebook", "baseball umpire inning", "paper glove pitcher eraser"} {
		d, err := m.Infer(text, InferOptions{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		top = m.TopTopics(d, m.NumTopics())
		if len(top) != m.NumTopics() || top[0].Label == "" {
			t.Fatalf("TopTopics = %+v", top)
		}
	}
	if m.lazyPhi != nil {
		t.Fatalf("TopTopics materialized φ rows: %d allocated", len(m.lazyPhi))
	}

	words := top[0].TopWords(3)
	if p := top[0].Probability(words[0]); p <= 0 {
		t.Fatalf("Probability(%q) = %g", words[0], p)
	}
	for i, row := range m.lazyPhi {
		if (row != nil) != (i == top[0].Index) {
			t.Fatalf("after TopWords on topic %d, row %d materialized = %v", top[0].Index, i, row != nil)
		}
	}
	for _, tp := range m.Topics() {
		if tp.Index == top[0].Index {
			for i, w := range tp.TopWords(3) {
				if w != words[i] {
					t.Fatalf("lazy top words %v differ from Topics()'s %v", words, tp.TopWords(3))
				}
			}
		}
	}
}
