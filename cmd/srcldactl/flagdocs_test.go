package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"testing"

	"sourcelda"
	"sourcelda/cmd/internal/flagdocs"
	"sourcelda/cmd/internal/traincli"
	"sourcelda/internal/core"
	"sourcelda/internal/dtrain"
)

// TestFlagsDocumented diffs srcldactl's actual flag set against the table in
// docs/OPERATIONS.md.
func TestFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
	defineFlags(fs)
	flagdocs.Check(t, fs, "### `srcldactl` flags")
}

func specFor(t *testing.T, args ...string) (dtrain.ChainSpec, error) {
	t.Helper()
	c, src, err := traincli.LoadData("", "", 42)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return specFromFlags(f, c, src)
}

// TestSpecFromFlags: the spec the coordinator ships is the façade mapping's
// result — for every flag set, ChainSpec.Options(seed) hashes to the digest
// sourcelda.CoreOptions gives the equivalent sourcelda.Options, so a
// srcldactl checkpoint resumes under srclda (and sourcelda.Resume) with the
// same flags. The pinned digests are the ones the parent build's srclda and
// façade stamped on the demo corpus; cmd/srclda's TestChainFlagDigests pins
// the same values on what the binary writes.
func TestSpecFromFlags(t *testing.T) {
	c, src, err := traincli.LoadData("", "", 42)
	if err != nil {
		t.Fatal(err)
	}
	fc, fk := sourcelda.WrapCorpus(c), sourcelda.WrapKnowledgeSource(src)
	for _, tc := range []struct {
		args   []string
		facade sourcelda.Options
		pinned string
	}{
		{nil, sourcelda.Options{FreeTopics: 5, Seed: 42}, "05fb6d9ed834fea7"},
		{[]string{"-free", "8", "-mu", "0.5", "-sigma", "0.2"},
			sourcelda.Options{FreeTopics: 8, Seed: 42, Lambda: &sourcelda.LambdaPrior{Mu: 0.5, Sigma: 0.2}}, "a0317e4efc2bee55"},
		{[]string{"-lambda", "0.5"},
			sourcelda.Options{FreeTopics: 5, Seed: 42, Lambda: &sourcelda.LambdaPrior{Fixed: true, Lambda: 0.5}}, "eb38c0aed1c3047c"},
		{[]string{"-sampler", "sparse"}, sourcelda.Options{FreeTopics: 5, Seed: 42, Sampler: sourcelda.SamplerSparse}, "d6045d647951923a"},
		{[]string{"-sampler", "auto"}, sourcelda.Options{FreeTopics: 5, Seed: 42}, "05fb6d9ed834fea7"},
		{[]string{"-shards", "2", "-threads", "1"}, sourcelda.Options{FreeTopics: 5, Seed: 42, Shards: 2}, "fe98349ed46232c2"},
		{[]string{"-shards", "2", "-threads", "4"}, sourcelda.Options{FreeTopics: 5, Seed: 42, Shards: 2, Threads: 4}, "fe98349ed46232c2"},
	} {
		spec, err := specFor(t, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		got, err := spec.Options(spec.Seed)
		if err != nil {
			t.Fatalf("%v: flag-built spec fails validation: %v", tc.args, err)
		}
		want, err := sourcelda.CoreOptions(fc, fk, tc.facade)
		if err != nil {
			t.Fatal(err)
		}
		if got.ChainDigest() != want.ChainDigest() {
			t.Errorf("%v: spec digest %016x, façade digest %016x\nspec   %+v\nfaçade %+v", tc.args, got.ChainDigest(), want.ChainDigest(), got, want)
		}
		if digest := fmt.Sprintf("%016x", got.ChainDigest()); digest != tc.pinned {
			t.Errorf("%v: digest %s, pinned %s", tc.args, digest, tc.pinned)
		}
	}

	// -threads is the per-worker bound as given; it never comes from the
	// coordinator's CPU count.
	if spec, _ := specFor(t, "-shards", "3"); spec.Threads != 1 || spec.Shards != 3 || spec.SweepMode != "sharded-docs" {
		t.Errorf("-shards 3: spec %+v, want 3 shards swept by the default 1 thread", spec)
	}

	// The spec is validated before any worker joins: a retired kernel name
	// stops the coordinator by name, a typo as unknown.
	for name, retired := range map[string]bool{"simple-parallel": true, "prefix-sums": true, "dense": false} {
		if _, err := specFor(t, "-sampler", name); err == nil || errors.Is(err, core.ErrRetiredSampler) != retired {
			t.Errorf("-sampler %s: spec error %v", name, err)
		}
	}
}

// TestSweepModeFlagRemoved: -shards N is how sharded sweeps are asked for.
func TestSweepModeFlagRemoved(t *testing.T) {
	fs := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs)
	if err := fs.Parse([]string{"-sweepmode", "sharded-docs"}); err == nil {
		t.Fatal("-sweepmode still parses")
	}
}
