package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/stats"
	"sourcelda/internal/synth"
)

// caseStudyFixture builds the §I case-study data.
func caseStudyFixture() *synth.CaseStudyData { return synth.CaseStudy() }

func TestValidation(t *testing.T) {
	cs := caseStudyFixture()
	bad := []Options{
		{NumFreeTopics: -1},
		{Alpha: -1},
		{LambdaMode: LambdaFixed, Lambda: 2},
		{LambdaMode: LambdaIntegrated, Mu: 0.5, Sigma: -1},
	}
	for i, o := range bad {
		o.Iterations = 1
		if _, err := Fit(cs.Corpus, cs.Source, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if _, err := Fit(nil, cs.Source, Options{Iterations: 1}); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := Fit(cs.Corpus, nil, Options{Iterations: 1}); err == nil {
		t.Error("nil source accepted")
	}
}

func TestCaseStudyIdealAssignments(t *testing.T) {
	// The paper's §I motivating claim: with the School Supplies and
	// Baseball articles as prior knowledge, Source-LDA should put pencil
	// and ruler under School Supplies and umpire and baseball under
	// Baseball — the "ideal solution" LDA cannot reliably find.
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		NumFreeTopics: 0, // bijective: exactly the two known topics
		Alpha:         0.5,
		LambdaMode:    LambdaFixed,
		Lambda:        1,
		Iterations:    200,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	school := m.K + cs.SchoolSupplies
	baseball := m.K + cs.Baseball
	z := m.Assignments()
	// d1 = pencil, pencil, umpire; d2 = ruler, ruler, baseball.
	if z[0][0] != school || z[0][1] != school {
		t.Errorf("pencil tokens assigned to %d/%d, want School Supplies (%d)", z[0][0], z[0][1], school)
	}
	if z[0][2] != baseball {
		t.Errorf("umpire assigned to %d, want Baseball (%d)", z[0][2], baseball)
	}
	if z[1][0] != school || z[1][1] != school {
		t.Errorf("ruler tokens assigned to %d/%d, want School Supplies (%d)", z[1][0], z[1][1], school)
	}
	if z[1][2] != baseball {
		t.Errorf("baseball assigned to %d, want Baseball (%d)", z[1][2], baseball)
	}
}

func TestPhiThetaNormalized(t *testing.T) {
	cs := caseStudyFixture()
	for _, mode := range []LambdaMode{LambdaFixed, LambdaIntegrated} {
		m, err := Fit(cs.Corpus, cs.Source, Options{
			NumFreeTopics: 2,
			LambdaMode:    mode,
			Lambda:        0.8,
			Mu:            0.7, Sigma: 0.3,
			QuadraturePoints: 5,
			Iterations:       15,
			Seed:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, row := range m.Phi() {
			var s float64
			for _, p := range row {
				if p < 0 {
					t.Fatalf("mode %v: negative φ[%d]", mode, k)
				}
				s += p
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("mode %v: φ[%d] sums to %v", mode, k, s)
			}
		}
		for d, row := range m.Theta() {
			var s float64
			for _, p := range row {
				s += p
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("mode %v: θ[%d] sums to %v", mode, d, s)
			}
		}
		m.Close()
	}
}

func TestLambdaOneConformsToSource(t *testing.T) {
	// With λ = 1 and a corpus drawn from the source distribution, φ should
	// hug the source distribution (Fig. 2's premise).
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Alpha: 0.5,
		Iterations: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	phi := m.Phi()
	V := cs.Corpus.VocabSize()
	for s := 0; s < cs.Source.Len(); s++ {
		src := cs.Source.Article(s).SmoothedDistribution(V, knowledge.DefaultEpsilon)
		js := stats.JSDivergence(phi[m.K+s], src)
		if js > 0.1 {
			t.Errorf("topic %d: JS to source %v, want < 0.1 at λ=1", s, js)
		}
	}
}

func TestLambdaZeroIgnoresSourceShape(t *testing.T) {
	// λ = 0 flattens δ to all-ones: φ is then driven by corpus counts, not
	// the source. The divergence from the source should exceed the λ = 1
	// divergence (the relaxation the paper designs λ for).
	cs := caseStudyFixture()
	fit := func(lambda float64) float64 {
		m, err := Fit(cs.Corpus, cs.Source, Options{
			LambdaMode: LambdaFixed, Lambda: lambda, Alpha: 0.5,
			Iterations: 100, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		V := cs.Corpus.VocabSize()
		var total float64
		for s := 0; s < cs.Source.Len(); s++ {
			src := cs.Source.Article(s).SmoothedDistribution(V, knowledge.DefaultEpsilon)
			total += stats.JSDivergence(m.Phi()[m.K+s], src)
		}
		return total
	}
	if js0, js1 := fit(0), fit(1); js0 <= js1 {
		t.Fatalf("JS at λ=0 (%v) should exceed JS at λ=1 (%v)", js0, js1)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cs := caseStudyFixture()
	opts := Options{
		NumFreeTopics: 1, LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, Iterations: 10, Seed: 99,
	}
	m1, err := Fit(cs.Corpus, cs.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := Fit(cs.Corpus, cs.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	z1, z2 := m1.Assignments(), m2.Assignments()
	for d := range z1 {
		for i := range z1[d] {
			if z1[d][i] != z2[d][i] {
				t.Fatal("same options+seed produced different chains")
			}
		}
	}
}

func TestMixtureRecoversUnknownTopic(t *testing.T) {
	// Build a corpus mixing a source topic with an unknown topic the
	// knowledge source does not cover; the free topic should absorb the
	// unknown vocabulary (§III-B's purpose).
	c := corpus.New()
	for i := 0; i < 25; i++ {
		c.AddText("known", "pencil ruler eraser pencil ruler eraser notebook paper", nil)
		c.AddText("unknown", "quasar nebula pulsar quasar nebula pulsar galaxy photon", nil)
	}
	// A realistic knowledge article carries enough pseudo-counts (the paper
	// uses whole Wikipedia articles) to anchor the source topic; repeat the
	// text so δ is comparable to the corpus token mass.
	school := knowledge.NewArticleFromText("School Supplies",
		strings.Repeat("pencil pencil pencil ruler ruler eraser eraser notebook paper paper ", 30),
		c.Vocab, nil, true)
	src := knowledge.MustNewSource([]*knowledge.Article{school})
	m, err := Fit(c, src, Options{
		NumFreeTopics: 1,
		Alpha:         0.5,
		LambdaMode:    LambdaFixed,
		Lambda:        1,
		Iterations:    150,
		Seed:          17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	phi := m.Phi()
	quasar, _ := c.Vocab.ID("quasar")
	pencil, _ := c.Vocab.ID("pencil")
	// Free topic (index 0) should carry the astronomy words.
	if phi[0][quasar] < 0.05 {
		t.Errorf("free topic gives quasar %v, want it to absorb unknown vocabulary", phi[0][quasar])
	}
	// Source topic should hold the school words.
	if phi[1][pencil] < 0.05 {
		t.Errorf("source topic gives pencil %v", phi[1][pencil])
	}
	// Tokens of the unknown documents should mostly use the free topic.
	var freeTokens, total int
	for d, doc := range c.Docs {
		if doc.Name != "unknown" {
			continue
		}
		for _, k := range m.Assignments()[d] {
			total++
			if k == 0 {
				freeTokens++
			}
		}
	}
	if frac := float64(freeTokens) / float64(total); frac < 0.7 {
		t.Errorf("unknown tokens on free topic: %v, want ≥ 0.7", frac)
	}
}

func TestQuadratureNodes(t *testing.T) {
	nodes, weights := quadratureNodes(0.5, 0.2, 9)
	if len(nodes) != 9 || len(weights) != 9 {
		t.Fatal("wrong node count")
	}
	var wsum float64
	for i, w := range weights {
		if w < 0 {
			t.Fatal("negative weight")
		}
		if nodes[i] <= 0 || nodes[i] >= 1 {
			t.Fatalf("node %v outside (0,1)", nodes[i])
		}
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", wsum)
	}
	// Weight mass should peak near µ.
	mid := weights[4]
	if weights[0] >= mid || weights[8] >= mid {
		t.Fatal("weights should peak near the mean")
	}
	// σ = 0 degenerates to one node at clamp(µ).
	nodes, weights = quadratureNodes(1.7, 0, 9)
	if len(nodes) != 1 || nodes[0] != 1 || weights[0] != 1 {
		t.Fatalf("σ=0 nodes = %v, weights = %v", nodes, weights)
	}
}

func TestTopicDocumentFrequenciesAndTokens(t *testing.T) {
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Iterations: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	df := m.TopicDocumentFrequencies(1)
	var totalTokens int
	for _, n := range m.TokensPerTopic() {
		totalTokens += n
	}
	if totalTokens != cs.Corpus.TotalTokens() {
		t.Fatalf("token totals %d, want %d", totalTokens, cs.Corpus.TotalTokens())
	}
	for _, f := range df {
		if f < 0 || f > cs.Corpus.NumDocs() {
			t.Fatalf("doc frequency %d out of range", f)
		}
	}
	// Result counts them in Θ's pass; it must agree with the counting pass.
	if got := m.Result().DocFrequencies; !slices.Equal(got, df) {
		t.Fatalf("Result document frequencies %v, TopicDocumentFrequencies(1) %v", got, df)
	}
}

func TestLabelsAndSourceIndex(t *testing.T) {
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		NumFreeTopics: 2, LambdaMode: LambdaFixed, Lambda: 1, Iterations: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	labels := m.Labels()
	if labels[0] != "topic-0" || labels[1] != "topic-1" {
		t.Fatalf("free labels = %v", labels[:2])
	}
	if labels[2] != "School Supplies" || labels[3] != "Baseball" {
		t.Fatalf("source labels = %v", labels[2:])
	}
	if m.SourceIndex(0) != -1 || m.SourceIndex(2) != 0 || m.SourceIndex(3) != 1 {
		t.Fatal("SourceIndex mapping wrong")
	}
}

func TestLikelihoodTraceImproves(t *testing.T) {
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Iterations: 40, Seed: 8,
		TraceLikelihood: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	trace := m.LikelihoodTrace
	if len(trace) != 40 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Prior-based initialization can start tiny corpora at the optimum
	// already; require only that the chain does not degrade beyond
	// round-off.
	if trace[len(trace)-1] < trace[0]-1e-9 {
		t.Fatalf("likelihood decreased: %v → %v", trace[0], trace[len(trace)-1])
	}
	for _, ll := range trace {
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			t.Fatal("non-finite likelihood")
		}
	}
}

func TestResultSnapshotIndependence(t *testing.T) {
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Iterations: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := m.Result()
	orig := res.Assignments[0][0]
	m.Run(10) // extend the chain; snapshot must not change
	if res.Assignments[0][0] != orig {
		t.Fatal("Result shares assignment storage with the live chain")
	}
	if res.NumTopics() != m.NumTopics() {
		t.Fatal("topic count mismatch")
	}
}

func TestReduceByDocumentFrequency(t *testing.T) {
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		NumFreeTopics: 1, LambdaMode: LambdaFixed, Lambda: 1,
		Iterations: 60, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := m.Result()
	// Impossible threshold: all source topics dropped, free topics kept.
	red := res.ReduceByDocumentFrequency(10_000, 1)
	if len(red.Result.Phi) != res.NumFreeTopics {
		t.Fatalf("kept %d topics, want only the %d free topics", len(red.Result.Phi), res.NumFreeTopics)
	}
	for t2, n := range red.OldToNew {
		if res.SourceIndices[t2] >= 0 && n != -1 {
			t.Fatal("source topic survived an impossible threshold")
		}
	}
	// Trivial threshold keeps everything.
	red = res.ReduceByDocumentFrequency(1, 1)
	if len(red.Result.Phi) > res.NumTopics() {
		t.Fatal("reduction grew the topic set")
	}
	// θ rows stay normalized after reduction.
	for d, row := range red.Result.Theta {
		var s float64
		for _, p := range row {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("reduced θ[%d] sums to %v", d, s)
		}
	}
}

func TestHeldOutPerplexity(t *testing.T) {
	// Train on school+baseball text; a held-out doc of in-domain words must
	// be less perplexing than an out-of-domain doc.
	c := corpus.New()
	for i := 0; i < 20; i++ {
		c.AddText("k", "pencil ruler eraser pencil notebook paper pencil ruler", nil)
		c.AddText("b", "baseball umpire pitcher catcher inning baseball glove bat", nil)
	}
	school := knowledge.NewArticleFromText("School Supplies",
		"pencil pencil ruler ruler eraser notebook paper", c.Vocab, nil, true)
	ball := knowledge.NewArticleFromText("Baseball",
		"baseball baseball umpire pitcher catcher inning glove bat", c.Vocab, nil, true)
	// Intern the out-of-domain words up front so both test docs share the
	// training vocabulary.
	oov := corpus.NewWithVocab(c.Vocab)
	oov.AddText("astro", "quasar nebula pulsar galaxy quasar nebula pulsar galaxy", nil)

	src := knowledge.MustNewSource([]*knowledge.Article{school, ball})
	m, err := Fit(c, src, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Alpha: 0.5, Iterations: 80, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	inDomain := corpus.NewWithVocab(c.Vocab)
	inDomain.AddText("t", "pencil ruler baseball umpire pencil eraser", nil)
	ppxIn, err := m.HeldOutPerplexity(inDomain, 40, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	ppxOut, err := m.HeldOutPerplexity(oov, 40, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ppxIn <= 0 {
		t.Fatalf("perplexity %v must be positive", ppxIn)
	}
	if ppxIn >= ppxOut {
		t.Fatalf("in-domain perplexity %v should beat out-of-domain %v", ppxIn, ppxOut)
	}
	// Error paths.
	if _, err := m.HeldOutPerplexity(nil, 10, 5, 1); err == nil {
		t.Fatal("nil test corpus accepted")
	}
	foreign := corpus.New()
	foreign.AddText("x", "word", nil)
	if _, err := m.HeldOutPerplexity(foreign, 10, 5, 1); err == nil {
		t.Fatal("foreign-vocabulary corpus accepted")
	}
}

func TestDiscoveredSourceTopics(t *testing.T) {
	cs := caseStudyFixture()
	m, err := Fit(cs.Corpus, cs.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Iterations: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := m.Result()
	disc := res.DiscoveredSourceTopics(1, 1)
	if len(disc) == 0 {
		t.Fatal("no source topics discovered on a corpus generated from them")
	}
}

func TestModeStringer(t *testing.T) {
	if LambdaFixed.String() != "fixed" || LambdaIntegrated.String() != "integrated" {
		t.Fatal("LambdaMode strings wrong")
	}
	if SamplerSerial.String() != "serial" || SamplerSparse.String() != "sparse" {
		t.Fatal("SamplerKind strings wrong")
	}
	if LambdaMode(9).String() == "" || SamplerKind(9).String() == "" {
		t.Fatal("unknown enum values should still render")
	}
}
