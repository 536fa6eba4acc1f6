package sourcelda

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/infer"
)

func fitRuntimeFixture(t *testing.T) *Runtime {
	t.Helper()
	c, k := buildFixture(t)
	rt, err := FitRuntime(c, k, Options{FreeTopics: 1, Iterations: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestRuntimeAppendAndSnapshot(t *testing.T) {
	rt := fitRuntimeFixture(t)
	before := rt.Docs()
	digest := rt.ChainDigest()

	pre, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	texts := []string{
		"pencil ruler notebook eraser paper pencil",
		"baseball pitcher umpire glove inning baseball",
		"quasar neutrino", // no in-vocabulary tokens: skipped, not an error
	}
	n, err := rt.Append(texts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("appended %d docs, want 2", n)
	}
	if rt.Docs() != before+2 || rt.AppendedDocs() != 2 {
		t.Fatalf("docs %d appended %d, want %d and 2", rt.Docs(), rt.AppendedDocs(), before+2)
	}
	if rt.ChainDigest() != digest {
		t.Fatalf("append changed chain digest %s -> %s", digest, rt.ChainDigest())
	}

	// The pre-feed snapshot is isolated from the mutation; a fresh snapshot
	// serves the grown chain, and both infer cleanly.
	post, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{pre, post} {
		d, err := m.Infer("pencil ruler eraser", InferOptions{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if d.KnownTokens != 3 {
			t.Fatalf("known tokens %d, want 3", d.KnownTokens)
		}
	}
	// A snapshot builds its inference view from its own Φ; the mixture must
	// carry the same bits as one folded in against the chain's frozen view.
	const probe = "pencil ruler eraser baseball"
	got, err := post.Infer(probe, InferOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := infer.NewFromRuntime(rt.chain.Runtime(), infer.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Infer(encodeForInference(rt.vocab, probe)).Theta
	if len(got.Topics) != len(want) {
		t.Fatalf("snapshot mixture has %d topics, frozen view %d", len(got.Topics), len(want))
	}
	for i := range want {
		if math.Float64bits(got.Topics[i]) != math.Float64bits(want[i]) {
			t.Fatalf("topic %d: snapshot %v, frozen view %v", i, got.Topics[i], want[i])
		}
	}
	if pre.BundleInfo().ChainDigest != post.BundleInfo().ChainDigest {
		t.Fatal("snapshots disagree on chain digest")
	}

	inf, err := rt.NewInferrer(InferOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	if _, err := inf.Infer("baseball umpire"); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeFeedImprovesHeldOutPerplexity(t *testing.T) {
	rt := fitRuntimeFixture(t)
	held := []string{
		"pencil pencil baseball ruler umpire notebook pitcher paper glove eraser",
		"baseball pencil inning ruler glove notebook umpire paper pitcher eraser",
	}
	p0, err := rt.HeldOutPerplexity(held, 30, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Append(held, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Compact(10); err != nil {
		t.Fatal(err)
	}
	p1, err := rt.HeldOutPerplexity(held, 30, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !(p1 < p0) {
		t.Fatalf("feeding held-out docs did not improve their perplexity: before %v after %v", p0, p1)
	}
}

// TestRuntimeAppendHeapIndependentOfTopics feeds the same documents to a
// T = 72 and a T = 1032 runtime and compares the live heap each grew by. A
// chain's per-document state is its tokens' words and assignments, so the
// growth must not depend on T; a store of T counters per document would
// grow the wide runtime by 4 KB a document more.
func TestRuntimeAppendHeapIndependentOfTopics(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap growth")
	}
	const fed = 2000
	// Documents 0–9 of wideFixture name the same articles at either width,
	// so their words are in both vocabularies.
	texts := make([]string, fed)
	for i := range texts {
		x, y := wideArticleName(7*(i%10)), wideArticleName(7*(i%10)+3)
		texts[i] = strings.Repeat(fmt.Sprintf("alpha%s beta%s alpha%s gamma%s beta%s stray%s alpha%s ", x, x, y, y, y, x, x), 3)
	}
	// Earlier tests may leave garbage that one collection does not free:
	// sync.Pool contents survive one in the victim cache, and objects with
	// finalizers are freed only by the collection after the one that queued
	// their finalizer.
	settle := func() {
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
	}
	growth := func(articles int) float64 {
		c, k := wideFixture(t, articles)
		rt, err := FitRuntime(c, k, Options{FreeTopics: 1, Iterations: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		// A first append settles what the chain allocates once, not per
		// document.
		if _, err := rt.Append(texts[:1], 1); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		settle()
		runtime.ReadMemStats(&before)
		tokens := rt.c.TotalTokens()
		if n, err := rt.Append(texts, 1); err != nil || n != fed {
			t.Fatalf("T = %d: appended %d of %d documents (%v)", articles+1, n, fed, err)
		}
		if got := rt.c.TotalTokens() - tokens; got != fed*21 {
			t.Fatalf("T = %d: appended %d tokens, want %d", articles+1, got, fed*21)
		}
		settle()
		runtime.ReadMemStats(&after)
		// The texts must stay live through the second reading, or freeing
		// them would offset the growth.
		runtime.KeepAlive(texts)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / fed
	}
	narrow, wide := growth(71), growth(1031)
	t.Logf("heap growth per appended document: %.0f B at T = 72, %.0f B at T = 1032", narrow, wide)
	if narrow <= 0 || wide > 1.25*narrow || narrow > 1.25*wide {
		t.Fatalf("heap growth per appended document depends on T: %.0f B at T = 72, %.0f B at T = 1032", narrow, wide)
	}
}

func TestRuntimeCompactPreservesLineage(t *testing.T) {
	rt := fitRuntimeFixture(t)
	if _, err := rt.Append([]string{"pencil ruler baseball umpire"}, 2); err != nil {
		t.Fatal(err)
	}
	digest := rt.ChainDigest()
	before := rt.chain.Checkpoint()

	// A zero-sweep compaction is a pure rebuild: bit-identical state.
	if err := rt.Compact(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.chain.Checkpoint(), before) {
		t.Fatal("zero-sweep compaction changed chain state")
	}

	sweeps := rt.Sweeps()
	if err := rt.Compact(5); err != nil {
		t.Fatal(err)
	}
	if rt.Sweeps() != sweeps+5 {
		t.Fatalf("compaction ran to sweep %d, want %d", rt.Sweeps(), sweeps+5)
	}
	if rt.ChainDigest() != digest {
		t.Fatalf("compaction broke digest lineage %s -> %s", digest, rt.ChainDigest())
	}
	if err := rt.Compact(-1); err == nil {
		t.Fatal("negative compaction sweeps accepted")
	}
}

func TestRuntimeChainArchiveRoundTrip(t *testing.T) {
	rt := fitRuntimeFixture(t)
	if _, err := rt.Append([]string{"pencil notebook eraser", "baseball glove inning"}, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.chain")
	if err := rt.SaveChainFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadChainRuntimeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	if loaded.Docs() != rt.Docs() || loaded.Sweeps() != rt.Sweeps() || loaded.AppendedDocs() != rt.AppendedDocs() {
		t.Fatalf("loaded runtime shape %d/%d/%d, want %d/%d/%d",
			loaded.Docs(), loaded.Sweeps(), loaded.AppendedDocs(),
			rt.Docs(), rt.Sweeps(), rt.AppendedDocs())
	}
	if loaded.ChainDigest() != rt.ChainDigest() {
		t.Fatalf("archive changed chain digest %s -> %s", rt.ChainDigest(), loaded.ChainDigest())
	}

	// Continuation determinism: both runtimes absorb the same stream and
	// must land on bit-identical chains.
	stream := []string{"pencil pencil umpire ruler", "baseball eraser pitcher paper"}
	if _, err := rt.Append(stream, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Append(stream, 3); err != nil {
		t.Fatal(err)
	}
	a, b := rt.chain.Checkpoint(), loaded.chain.Checkpoint()
	a.IterationTimes, b.IterationTimes = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatal("archive round-trip diverged on continued appends")
	}
}

func TestRuntimeClosed(t *testing.T) {
	rt := fitRuntimeFixture(t)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if _, err := rt.Append([]string{"pencil"}, 1); err != ErrRuntimeClosed {
		t.Fatalf("Append after close: %v", err)
	}
	if _, err := rt.Snapshot(); err != ErrRuntimeClosed {
		t.Fatalf("Snapshot after close: %v", err)
	}
	if err := rt.Compact(1); err != ErrRuntimeClosed {
		t.Fatalf("Compact after close: %v", err)
	}
	if _, err := rt.HeldOutPerplexity([]string{"pencil"}, 10, 2, 1); err != ErrRuntimeClosed {
		t.Fatalf("HeldOutPerplexity after close: %v", err)
	}
	if err := rt.SaveChainFile(filepath.Join(t.TempDir(), "x.chain")); err != ErrRuntimeClosed {
		t.Fatalf("SaveChainFile after close: %v", err)
	}
}

// TestUnknownSamplersRejected: a Sampler value naming no kernel this build
// carries must fail every entry point that builds a chain — Fit, FitRuntime,
// Resume, and LoadChainRuntime decoding it from an archive header — and the
// two values the retired Algorithm 3/2 kernels held must fail by name. None
// may fall through to a serial chain.
func TestUnknownSamplersRejected(t *testing.T) {
	c, k := buildFixture(t)
	rt := fitRuntimeFixture(t)
	ckDir := t.TempDir()
	ckOpts := Options{FreeTopics: 1, Iterations: 5, Seed: 21, Checkpoint: &Checkpointing{Dir: ckDir, EverySweeps: 5}}
	if _, err := Fit(c, k, ckOpts); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sampler Sampler
		retired string
	}{
		{3, "simple-parallel"},
		{4, "prefix-sums"},
		{5, ""},
		{-1, ""},
	} {
		opts := Options{FreeTopics: 1, Iterations: 5, Seed: 21, Sampler: tc.sampler}
		_, errFit := Fit(c, k, opts)
		_, errRuntime := FitRuntime(c, k, opts)
		_, errResume := Resume(ckDir, c, k, opts)
		// An archive whose header carries the value: what a build that still
		// had the kernel would have written.
		rt.opts.Sampler = tc.sampler
		var archive bytes.Buffer
		if err := rt.SaveChain(&archive); err != nil {
			t.Fatal(err)
		}
		_, errLoad := LoadChainRuntime(&archive)
		for entry, err := range map[string]error{"Fit": errFit, "FitRuntime": errRuntime, "Resume": errResume, "LoadChainRuntime": errLoad} {
			if err == nil {
				t.Fatalf("Sampler %d: %s accepted it", tc.sampler, entry)
			}
			if got := errors.Is(err, core.ErrRetiredSampler); got != (tc.retired != "") {
				t.Fatalf("Sampler %d: %s: errors.Is(ErrRetiredSampler) = %v for %v", tc.sampler, entry, got, err)
			}
			if !strings.Contains(err.Error(), tc.retired) {
				t.Fatalf("Sampler %d: %s error does not name the kernel: %v", tc.sampler, entry, err)
			}
		}
	}
}
