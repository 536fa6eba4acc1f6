package sourcelda

import (
	"runtime"
	"strings"
	"testing"

	"sourcelda/internal/core"
)

func buildFixture(t testing.TB) (*Corpus, *KnowledgeSource) {
	t.Helper()
	b := NewCorpusBuilder()
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
	return c, k
}

func TestBuilder(t *testing.T) {
	c, k := buildFixture(t)
	if c.NumDocuments() != 20 {
		t.Fatalf("docs = %d", c.NumDocuments())
	}
	if k.NumArticles() != 2 {
		t.Fatalf("articles = %d", k.NumArticles())
	}
	if c.VocabularySize() == 0 || c.TotalTokens() != 120 {
		t.Fatalf("vocab %d tokens %d", c.VocabularySize(), c.TotalTokens())
	}
	labels := k.Labels()
	if labels[0] != "School Supplies" || labels[1] != "Baseball" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestBuilderRejectsDuplicateLabels(t *testing.T) {
	b := NewCorpusBuilder()
	b.AddDocument("d", "x y z")
	b.AddKnowledgeArticle("A", "x x")
	b.AddKnowledgeArticle("A", "y y")
	if _, _, err := b.Build(); err == nil {
		t.Fatal("duplicate labels accepted")
	}
}

func TestBuilderStopwords(t *testing.T) {
	b := NewCorpusBuilder()
	b.AddDocument("d", "the pencil and the ruler")
	c, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalTokens() != 2 {
		t.Fatalf("tokens = %d, want stopwords removed", c.TotalTokens())
	}
	b2 := NewCorpusBuilder()
	b2.SetStopwords(nil)
	b2.AddDocument("d", "the pencil and the ruler")
	c2, _, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c2.TotalTokens() != 5 {
		t.Fatalf("tokens = %d, want all 5 with filtering disabled", c2.TotalTokens())
	}
}

func TestFitAndTopics(t *testing.T) {
	c, k := buildFixture(t)
	m, err := Fit(c, k, Options{
		FreeTopics: 1,
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 100,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	topics := m.Topics()
	if len(topics) != 3 {
		t.Fatalf("topics = %d", len(topics))
	}
	// Weights sorted descending and sum ≈ 1.
	var sum float64
	for i, tp := range topics {
		sum += tp.Weight
		if i > 0 && tp.Weight > topics[i-1].Weight {
			t.Fatal("topics not sorted by weight")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum %v", sum)
	}
	// The two source topics should dominate and carry the right words.
	var school *Topic
	for i := range topics {
		if topics[i].Label == "School Supplies" {
			school = &topics[i]
		}
	}
	if school == nil {
		t.Fatal("no School Supplies topic")
	}
	if !school.IsSourceTopic {
		t.Fatal("School Supplies should be a source topic")
	}
	top := school.TopWords(3)
	found := false
	for _, w := range top {
		if w == "pencil" {
			found = true
		}
	}
	if !found {
		t.Fatalf("School Supplies top words %v lack pencil", top)
	}
	if school.Probability("pencil") <= school.Probability("baseball") {
		t.Fatal("pencil should outweigh baseball under School Supplies")
	}
	if school.Probability("no-such-word") != 0 {
		t.Fatal("unknown word should be 0")
	}
}

func TestFitDefaults(t *testing.T) {
	// Zero-value options must work end to end (integrated λ, paper priors).
	c, k := buildFixture(t)
	m, err := Fit(c, k, Options{Iterations: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Topics()); got != 2 {
		t.Fatalf("topics = %d", got)
	}
}

func TestFitNilArguments(t *testing.T) {
	c, k := buildFixture(t)
	if _, err := Fit(nil, k, Options{Iterations: 1}); err == nil {
		t.Fatal("nil corpus accepted")
	}
	if _, err := Fit(c, nil, Options{Iterations: 1}); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestDocumentTopics(t *testing.T) {
	c, k := buildFixture(t)
	m, err := Fit(c, k, Options{
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 50,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	theta, err := m.DocumentTopics(0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range theta {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("θ sums to %v", sum)
	}
	if _, err := m.DocumentTopics(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := m.DocumentTopics(999); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestDiscoveredTopics(t *testing.T) {
	c, k := buildFixture(t)
	m, err := Fit(c, k, Options{
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 60,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	disc := m.DiscoveredTopics(1)
	if len(disc) == 0 {
		t.Fatal("nothing discovered on a fully-covered corpus")
	}
	if len(m.DiscoveredTopics(1_000_000)) != 0 {
		t.Fatal("impossible threshold discovered topics")
	}
}

func TestThreadedFitMatchesSerial(t *testing.T) {
	c, k := buildFixture(t)
	opts := Options{
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 15,
		Seed:       9,
	}
	serial, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Threads = 3
	threaded, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Raw().Assignments, threaded.Raw().Assignments
	for d := range a {
		for i := range a[d] {
			if a[d][i] != b[d][i] {
				t.Fatal("threaded fit diverged from serial with same seed")
			}
		}
	}
}

func TestShardedFitMatchesSerialWithOneShard(t *testing.T) {
	c, k := buildFixture(t)
	opts := Options{
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 15,
		Seed:       9,
	}
	serial, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 1
	sharded, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Raw().Assignments, sharded.Raw().Assignments
	for d := range a {
		for i := range a[d] {
			if a[d][i] != b[d][i] {
				t.Fatal("one-shard sharded fit diverged from serial with same seed")
			}
		}
	}
	// Multi-shard fits must run and keep every token assigned.
	opts.Shards = 4
	multi, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tokens int
	for _, n := range multi.Raw().TokenCounts {
		tokens += n
	}
	if tokens != c.TotalTokens() {
		t.Fatalf("sharded fit lost tokens: %d of %d", tokens, c.TotalTokens())
	}
}

func TestSparseSamplerFit(t *testing.T) {
	c, k := buildFixture(t)
	opts := Options{
		Lambda:     &LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 30,
		Seed:       9,
		Sampler:    SamplerSparse,
	}
	m1, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The sparse chain is deterministic given the seed.
	m2, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m1.Raw().Assignments, m2.Raw().Assignments
	for d := range a {
		for i := range a[d] {
			if a[d][i] != b[d][i] {
				t.Fatal("sparse fit is not deterministic with a fixed seed")
			}
		}
	}
	// It still recovers the planted topics on the trivially-separable
	// fixture, and keeps every token assigned.
	var tokens int
	for _, n := range m1.Raw().TokenCounts {
		tokens += n
	}
	if tokens != c.TotalTokens() {
		t.Fatalf("sparse fit lost tokens: %d of %d", tokens, c.TotalTokens())
	}
	for _, topic := range m1.Topics() {
		if topic.Weight == 0 {
			continue
		}
		words := topic.TopWords(3)
		if len(words) == 0 {
			t.Fatalf("topic %q has no top words", topic.Label)
		}
	}
	// An explicit SamplerSerial must reproduce the SamplerAuto chain: auto is
	// documented as the dense serial scan.
	base := Options{Lambda: &LambdaPrior{Fixed: true, Lambda: 1}, Iterations: 10, Seed: 4}
	auto, err := Fit(c, k, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Sampler = SamplerSerial
	explicit, err := Fit(c, k, base)
	if err != nil {
		t.Fatal(err)
	}
	a, b = auto.Raw().Assignments, explicit.Raw().Assignments
	for d := range a {
		for i := range a[d] {
			if a[d][i] != b[d][i] {
				t.Fatal("explicit SamplerSerial diverged from SamplerAuto")
			}
		}
	}
}

func TestLabelers(t *testing.T) {
	c, k := buildFixture(t)
	for _, kind := range []LabelerKind{LabelJSDivergence, LabelTFIDFCosine, LabelCounting, LabelPMI} {
		l, err := NewLabeler(kind, c, k)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if l == nil {
			t.Fatalf("kind %d: nil labeler", kind)
		}
	}
	if _, err := NewLabeler(LabelerKind(99), c, k); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestWrapHelpers(t *testing.T) {
	c, k := buildFixture(t)
	if WrapCorpus(c.Internal()).NumDocuments() != c.NumDocuments() {
		t.Fatal("WrapCorpus round trip failed")
	}
	if WrapKnowledgeSource(k.Internal()).NumArticles() != k.NumArticles() {
		t.Fatal("WrapKnowledgeSource round trip failed")
	}
}

// TestCoreOptionsIsAFunctionOfTheOptions: the mapping every entry point
// shares. The shard count is the caller's number — never the thread bound,
// never the machine's CPU count — so the digest a checkpoint embeds is the
// same on any box; Threads alone absorbs core.DefaultShardWorkers. A fixed λ
// is the raw exponent: no smoothing, no (µ, σ) in the digest.
func TestCoreOptionsIsAFunctionOfTheOptions(t *testing.T) {
	c, k := buildFixture(t)
	var digests []uint64
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, threads := range []int{0, 1, 4} {
			o, err := CoreOptions(c, k, Options{FreeTopics: 1, Seed: 9, Shards: 3, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if o.SweepMode != core.SweepShardedDocs || o.Shards != 3 || o.Threads < 1 || (threads > 0 && o.Threads != threads) {
				t.Errorf("GOMAXPROCS %d Threads %d: mapped to mode %v, %d shards, %d threads", procs, threads, o.SweepMode, o.Shards, o.Threads)
			}
			digests = append(digests, o.ChainDigest())
		}
		runtime.GOMAXPROCS(prev)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("chain digest moved with Threads or GOMAXPROCS: %x", digests)
		}
	}
	if o, _ := CoreOptions(c, k, Options{FreeTopics: 1, Threads: 8}); o.SweepMode != core.SweepSequential || o.Shards != 0 {
		t.Errorf("Threads without Shards mapped to mode %v, %d shards; only Shards > 0 shards the sweep", o.SweepMode, o.Shards)
	}

	fixed, err := CoreOptions(c, k, Options{FreeTopics: 1, Lambda: &LambdaPrior{Fixed: true, Lambda: 0.5, Mu: 0.7, Sigma: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.LambdaMode != core.LambdaFixed || fixed.Lambda != 0.5 || fixed.UseSmoothing || fixed.Mu != 0 || fixed.Sigma != 0 {
		t.Errorf("fixed λ mapped to %+v; want the raw exponent, no smoothing, µ = σ = 0", fixed)
	}
}
