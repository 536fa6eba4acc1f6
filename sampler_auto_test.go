package sourcelda

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sourcelda/internal/core"
)

// wideFixture builds a corpus under the given number of knowledge articles,
// so that T = FreeTopics + articles can sit on either side of
// sparseMinTopics. Article a owns three words; document i mixes the words
// of articles 7i and 7i+3 with one word no article has.
func wideFixture(t *testing.T, articles int) (*Corpus, *KnowledgeSource) {
	t.Helper()
	name := func(a int) string { return string(rune('a'+a/26%26)) + string(rune('a'+a%26)) }
	b := NewCorpusBuilder()
	for i := 0; i < 30; i++ {
		x, y := name(7*i%articles), name((7*i+3)%articles)
		b.AddDocument(fmt.Sprintf("d%02d", i), fmt.Sprintf("alpha%s beta%s alpha%s gamma%s beta%s stray%s alpha%s", x, x, y, y, y, x, x))
	}
	for a := 0; a < articles; a++ {
		n := name(a)
		b.AddKnowledgeArticle("topic "+n, strings.Repeat(fmt.Sprintf("alpha%s alpha%s beta%s gamma%s ", n, n, n, n), 4))
	}
	c, k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, k
}

// TestAutoKernelByTopicCount: auto is serial below sparseMinTopics topics
// (free + source) and sparse from there up; an explicit kernel is taken at
// any T.
func TestAutoKernelByTopicCount(t *testing.T) {
	c, k := wideFixture(t, sparseMinTopics-1)
	for _, tc := range []struct {
		free    int
		sampler Sampler
		want    core.SamplerKind
	}{
		{0, SamplerAuto, core.SamplerSerial},
		{1, SamplerAuto, core.SamplerSparse},
		{5, SamplerAuto, core.SamplerSparse},
		{1, SamplerSerial, core.SamplerSerial},
		{0, SamplerSparse, core.SamplerSparse},
	} {
		o, err := CoreOptions(c, k, Options{FreeTopics: tc.free, Sampler: tc.sampler})
		if err != nil {
			t.Fatal(err)
		}
		if o.Sampler != tc.want {
			t.Errorf("T = %d, sampler %d: resolved %s, want %s", tc.free+k.NumArticles(), tc.sampler, o.Sampler, tc.want)
		}
	}
}

// TestAutoResumesEitherKernel: at T ≥ sparseMinTopics, a checkpoint or chain
// archive written under either explicit kernel resumes under auto and
// continues that kernel's chain bit for bit. An explicit serial kernel is
// what auto resolved to before it chose by topic count, so this is the
// compatibility path for checkpoints and archives from those builds. Resuming
// under the other explicit kernel fails, naming the kernel that wrote it.
func TestAutoResumesEitherKernel(t *testing.T) {
	c, k := wideFixture(t, sparseMinTopics)
	for _, tc := range []struct {
		wrote, other Sampler
		name         string
	}{
		{SamplerSerial, SamplerSparse, "serial"},
		{SamplerSparse, SamplerSerial, "sparse"},
	} {
		base := Options{FreeTopics: 1, Iterations: 12, Seed: 5, Sampler: tc.wrote}
		full, err := Fit(c, k, base)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		interrupted := base
		interrupted.Checkpoint = &Checkpointing{Dir: dir, EverySweeps: 4}
		interrupted.Progress = func(p Progress) error {
			if p.Sweep == 6 {
				return ErrStopTraining
			}
			return nil
		}
		if _, err := Fit(c, k, interrupted); err != nil {
			t.Fatal(err)
		}
		auto := base
		auto.Sampler = SamplerAuto
		resumed, err := Resume(dir, c, k, auto)
		if err != nil {
			t.Fatalf("%s checkpoint under auto: %v", tc.name, err)
		}
		facadeResultsEqual(t, tc.name+" checkpoint under auto", resumed.Raw(), full.Raw())
		if got, want := resumed.BundleInfo().ChainDigest, full.BundleInfo().ChainDigest; got != want {
			t.Errorf("%s checkpoint under auto: stamped digest %s, want %s", tc.name, got, want)
		}
		other := base
		other.Sampler = tc.other
		if _, err := Resume(dir, c, k, other); err == nil || !strings.Contains(err.Error(), "written under sampler "+tc.name) {
			t.Errorf("%s checkpoint under the other kernel: error %v, want one naming %s", tc.name, err, tc.name)
		}

		// A chain archive whose header says auto over a checkpoint the
		// explicit kernel wrote.
		rt, err := FitRuntime(c, k, base)
		if err != nil {
			t.Fatal(err)
		}
		rt.opts.Sampler = SamplerAuto
		var archive bytes.Buffer
		if err := rt.SaveChain(&archive); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadChainRuntime(&archive)
		if err != nil {
			t.Fatalf("%s archive under auto: %v", tc.name, err)
		}
		if loaded.ChainDigest() != rt.ChainDigest() {
			t.Errorf("%s archive under auto: digest %s, want %s", tc.name, loaded.ChainDigest(), rt.ChainDigest())
		}
		stream := []string{"alphaab betaab gammaac", "stray alphaac betaac"}
		for _, r := range []*Runtime{rt, loaded} {
			if _, err := r.Append(stream, 3); err != nil {
				t.Fatal(err)
			}
		}
		a, b := rt.chain.Checkpoint(), loaded.chain.Checkpoint()
		a.IterationTimes, b.IterationTimes = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s archive under auto diverged on continued appends", tc.name)
		}
		rt.Close()
		loaded.Close()
	}
}
