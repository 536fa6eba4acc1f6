package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sourcelda"
	"sourcelda/internal/rng"
	"sourcelda/internal/synth"
)

// Inputs is everything one workload run feeds the programs, generated from
// the seed: text files for the trainers, request bodies for the servers, a
// chain archive for the learner. The programs receive nothing else.
type Inputs struct {
	Spec Spec

	CorpusDir string // one *.txt per training document
	SourceDir string // one <label>.txt per knowledge article
	ChainPath string // chain archive for srcldad -learn-chain

	TrainTexts   []string
	HeldoutTexts []string
	Articles     []Article
	LiveLabels   []string // ground-truth generating topics

	ProbeTexts  []string
	Probes      [][]byte // {"text": ...} bodies of ProbeTexts
	Warmup      [][]byte
	PhaseA      [][]byte // {"text": ...}, 20–60 known tokens + 5% unknown words
	PhaseATexts []string
	PhaseB      [][]byte   // {"documents": [PhaseBDocs × 150–250 tokens]}
	PhaseBTexts [][]string // the documents of each PhaseB body
	Feed        [][]byte   // {"documents": [FeedBatchDocs × 40–120 tokens]}
	FeedTexts   []string
}

// Article is one knowledge-source article as text.
type Article struct{ Label, Text string }

// docSampler draws documents from the ground-truth topics of a generated
// scenario. synth.Generate samples words with a linear scan over V, which at
// a million tokens would cost more than the training it feeds; this draws
// from the same per-topic distributions by binary search on their CDFs.
type docSampler struct {
	words    []string    // vocabulary id → word
	topicCDF [][]float64 // one per live topic
	alpha    float64
	theta    []float64
	thetaCDF []float64
}

func newDocSampler(data *synth.MedlineData) *docSampler {
	s := &docSampler{words: data.Vocab.Words(), alpha: 0.1}
	for _, t := range data.Live {
		phi := data.Generated.TruthPhi[t]
		cdf := make([]float64, len(phi))
		var run float64
		for w, p := range phi {
			run += p
			cdf[w] = run
		}
		s.topicCDF = append(s.topicCDF, cdf)
	}
	s.theta = make([]float64, len(s.topicCDF))
	s.thetaCDF = make([]float64, len(s.topicCDF))
	return s
}

// text draws one document of n tokens; each token is replaced by a word no
// vocabulary holds with probability unknown.
func (s *docSampler) text(r *rng.RNG, n int, unknown float64) string {
	r.DirichletSymmetric(s.alpha, s.theta)
	var run float64
	for i, p := range s.theta {
		run += p
		s.thetaCDF[i] = run
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		if unknown > 0 && r.Float64() < unknown {
			fmt.Fprintf(&b, "qzx%dunk", r.Intn(1000))
			continue
		}
		z := r.CategoricalCumulative(s.thetaCDF)
		b.WriteString(s.words[r.CategoricalCumulative(s.topicCDF[z])])
	}
	return b.String()
}

func between(r *rng.RNG, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// Generate builds the in-memory inputs of a workload. The same (spec,
// sizes, seed) always yields the same bytes: each family of inputs draws
// from its own RNG stream, so resizing one phase leaves the others alone.
func Generate(spec Spec, sizes Sizes, seed int64) (*Inputs, error) {
	data, err := synth.MedlineLike(synth.MedlineOptions{
		NumTopics: spec.SourceTopics, LiveTopics: spec.LiveTopics,
		// The scenario's own corpus is unused (see docSampler).
		NumDocs: 1, AvgDocLen: 4,
		WordsPerTopic: spec.WordsPerTopic, ArticleTokens: spec.ArticleTokens,
		// Topics that stay close to their articles (λ ≈ 0.9), the regime a
		// knowledge source is for: at synth's default µ = 0.7 a third of
		// each topic's mass lands on words its article never uses, and a
		// few-sweep T = 1032 model then barely beats the unigram baseline
		// the publish check compares with. The prior is tight because with
		// the default σ = 0.3 how peaked the few live topics come out
		// differs so much between seeds that perplexity spreads by 20%.
		Mu: 0.9, Sigma: 0.05,
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &Inputs{Spec: spec}
	words := data.Vocab.Words()
	for _, a := range data.Source.Articles() {
		ids := make([]int, 0, len(a.Counts))
		for w := range a.Counts {
			ids = append(ids, w)
		}
		sort.Ints(ids)
		var b strings.Builder
		for _, w := range ids {
			for k := 0; k < a.Counts[w]; k++ {
				b.WriteString(words[w])
				b.WriteByte(' ')
			}
		}
		in.Articles = append(in.Articles, Article{Label: a.Label, Text: b.String()})
	}
	for _, t := range data.Live {
		in.LiveLabels = append(in.LiveLabels, data.Source.Label(t))
	}

	s := newDocSampler(data)
	stream := func(k int64) *rng.RNG { return rng.NewStream(seed, k) }
	docLen := func(r *rng.RNG) int { return between(r, spec.DocTokens*4/5, spec.DocTokens*6/5) }

	r := stream(1)
	for i := 0; i < spec.TrainDocs; i++ {
		in.TrainTexts = append(in.TrainTexts, s.text(r, docLen(r), 0))
	}
	r = stream(2)
	for i := 0; i < spec.HeldoutDocs; i++ {
		in.HeldoutTexts = append(in.HeldoutTexts, s.text(r, docLen(r), 0))
	}
	single := func(r *rng.RNG) (string, []byte) {
		text := s.text(r, between(r, 20, 60), 0.05)
		return text, mustJSON(map[string]string{"text": text})
	}
	r = stream(3)
	for i := 0; i < sizes.Probes; i++ {
		text, body := single(r)
		in.ProbeTexts = append(in.ProbeTexts, text)
		in.Probes = append(in.Probes, body)
	}
	r = stream(4)
	for i := 0; i < sizes.WarmupReqs; i++ {
		_, body := single(r)
		in.Warmup = append(in.Warmup, body)
	}
	r = stream(5)
	for i := 0; i < sizes.PhaseA; i++ {
		text, body := single(r)
		in.PhaseATexts = append(in.PhaseATexts, text)
		in.PhaseA = append(in.PhaseA, body)
	}
	r = stream(6)
	for i := 0; i < sizes.PhaseB; i++ {
		docs := make([]string, PhaseBDocs)
		for j := range docs {
			docs[j] = s.text(r, between(r, 150, 250), 0)
		}
		in.PhaseBTexts = append(in.PhaseBTexts, docs)
		in.PhaseB = append(in.PhaseB, mustJSON(map[string][]string{"documents": docs}))
	}
	r = stream(7)
	for i := 0; i < sizes.FeedDocs/FeedBatchDocs; i++ {
		docs := make([]string, FeedBatchDocs)
		for j := range docs {
			docs[j] = s.text(r, between(r, 40, 120), 0)
		}
		in.FeedTexts = append(in.FeedTexts, docs...)
		in.Feed = append(in.Feed, mustJSON(map[string][]string{"documents": docs}))
	}
	return in, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return b
}

// WriteFiles lays the training inputs out under dir the way cmd/srclda and
// cmd/srcldactl read them, and fits and saves the learner's chain archive.
func (in *Inputs) WriteFiles(dir string) error {
	in.CorpusDir = filepath.Join(dir, "corpus")
	in.SourceDir = filepath.Join(dir, "source")
	in.ChainPath = filepath.Join(dir, "chain.archive")
	for _, d := range []string{in.CorpusDir, in.SourceDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	for i, text := range in.TrainTexts {
		if err := os.WriteFile(filepath.Join(in.CorpusDir, fmt.Sprintf("d%06d.txt", i)), []byte(text), 0o644); err != nil {
			return err
		}
	}
	for _, a := range in.Articles {
		if err := os.WriteFile(filepath.Join(in.SourceDir, a.Label+".txt"), []byte(a.Text), 0o644); err != nil {
			return err
		}
	}
	return in.fitChain()
}

// loadTextDirs reads a corpus and a knowledge-source directory the way
// cmd/srclda's and cmd/srcldactl's loadData do — every *.txt in file-name
// order, through corpus.AddText and knowledge.NewArticleFromText (the façade
// builder makes exactly those calls). maxDocs > 0 stops after that many
// documents.
func loadTextDirs(corpusDir, sourceDir string, maxDocs int) (*sourcelda.Corpus, *sourcelda.KnowledgeSource, error) {
	b := sourcelda.NewCorpusBuilder()
	each := func(dir string, limit int, fn func(name, text string)) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		n := 0
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") || (limit > 0 && n == limit) {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			fn(e.Name(), string(data))
			n++
		}
		return nil
	}
	if err := each(corpusDir, maxDocs, b.AddDocument); err != nil {
		return nil, nil, err
	}
	if err := each(sourceDir, 0, func(name, text string) {
		b.AddKnowledgeArticle(strings.TrimSuffix(name, ".txt"), text)
	}); err != nil {
		return nil, nil, err
	}
	return b.Build()
}

func (in *Inputs) fitChain() error {
	c, k, err := loadTextDirs(in.CorpusDir, in.SourceDir, in.Spec.ChainDocs)
	if err != nil {
		return err
	}
	rt, err := sourcelda.FitRuntime(c, k, sourcelda.Options{
		FreeTopics: FreeTopics, Iterations: in.Spec.ChainSweeps, Seed: 42,
	})
	if err != nil {
		return fmt.Errorf("fit learner chain: %w", err)
	}
	defer rt.Close()
	return rt.SaveChainFile(in.ChainPath)
}
