package sourcelda

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
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
