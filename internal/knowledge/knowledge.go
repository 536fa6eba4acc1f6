package knowledge

import (
	"fmt"
	"math"
	"sort"

	"sourcelda/internal/textproc"
)

// DefaultEpsilon is the small positive mass added to every vocabulary word so
// Dirichlet draws stay positive (Definition 3's ε).
const DefaultEpsilon = 0.01

// Article is one knowledge-source document: a label naming the topic and the
// token counts of the article restricted to the corpus vocabulary.
type Article struct {
	// Label is the topic name (e.g. a Wikipedia article title).
	Label string
	// Counts maps corpus word id → occurrences within the article. Words of
	// the article outside the corpus vocabulary are not represented, per
	// Definition 3.
	Counts map[int]int
	// TotalTokens is the in-vocabulary token total (Σ counts).
	TotalTokens int
}

// NewArticle builds an article from a token-id stream.
func NewArticle(label string, words []int) *Article {
	a := &Article{Label: label, Counts: make(map[int]int)}
	for _, w := range words {
		a.Counts[w]++
		a.TotalTokens++
	}
	return a
}

// NewArticleFromText tokenizes text against vocab without growing it (words
// missing from the corpus vocabulary are dropped, per Definition 3) unless
// grow is true.
func NewArticleFromText(label, text string, vocab *textproc.Vocabulary, stop *textproc.Stopwords, grow bool) *Article {
	tokens := textproc.Tokenize(text)
	if stop != nil {
		tokens = stop.Filter(tokens)
	}
	return NewArticle(label, vocab.EncodeTokens(tokens, grow))
}

// Distribution returns the dense source distribution over a vocabulary of
// size v (Definition 2): f(w) = n_w / Σ n. Words absent from the article get
// zero probability. An empty article yields the uniform distribution.
func (a *Article) Distribution(v int) []float64 {
	out := make([]float64, v)
	if a.TotalTokens == 0 {
		u := 1 / float64(v)
		for i := range out {
			out[i] = u
		}
		return out
	}
	inv := 1 / float64(a.TotalTokens)
	for w, n := range a.Counts {
		if w >= 0 && w < v {
			out[w] = float64(n) * inv
		}
	}
	return out
}

// SmoothedDistribution returns the ε-smoothed, renormalized source
// distribution over v words: (n_w + ε) / Σ (n + ε). Unlike Distribution it is
// strictly positive everywhere, which the JS-divergence-based g(λ) estimator
// and EDA's fixed φ both rely on.
func (a *Article) SmoothedDistribution(v int, epsilon float64) []float64 {
	out := make([]float64, v)
	total := float64(a.TotalTokens) + epsilon*float64(v)
	inv := 1 / total
	for w := range out {
		out[w] = epsilon * inv
	}
	for w, n := range a.Counts {
		if w >= 0 && w < v {
			out[w] = (float64(n) + epsilon) * inv
		}
	}
	return out
}

// Hyperparams is the source hyperparameter vector δ of Definition 3 for one
// article over a vocabulary of size V: X_w = n_w + ε, held sparsely.
// Iteration and summation always run in ascending word-id order so that
// floating-point accumulations are bit-for-bit reproducible (Go map order
// is deliberately randomized and would otherwise perturb totals in the last
// ulp, breaking chain reproducibility).
type Hyperparams struct {
	// V is the corpus vocabulary size.
	V int
	// Epsilon is the smoothing mass for absent words.
	Epsilon float64
	// present maps word id → n_w + ε for words occurring in the article.
	present map[int]float64
	// order holds the present word ids in ascending order.
	order []int
}

// Hyperparams derives the δ vector for a vocabulary of size v. Counts for
// ids ≥ v are dropped (they are outside the corpus vocabulary).
func (a *Article) Hyperparams(v int, epsilon float64) *Hyperparams {
	if epsilon <= 0 {
		panic("knowledge: epsilon must be positive")
	}
	h := &Hyperparams{V: v, Epsilon: epsilon, present: make(map[int]float64, len(a.Counts))}
	for w, n := range a.Counts {
		if w >= 0 && w < v {
			h.present[w] = float64(n) + epsilon
			h.order = append(h.order, w)
		}
	}
	sort.Ints(h.order)
	return h
}

// Value returns X_w = n_w + ε.
func (h *Hyperparams) Value(w int) float64 {
	if x, ok := h.present[w]; ok {
		return x
	}
	return h.Epsilon
}

// Sum returns Σ_w X_w over the whole vocabulary, accumulated in word-id
// order for reproducibility.
func (h *Hyperparams) Sum() float64 {
	total := h.Epsilon * float64(h.V-len(h.present))
	for _, w := range h.order {
		total += h.present[w]
	}
	return total
}

// NumPresent returns the number of vocabulary words with article support.
func (h *Hyperparams) NumPresent() int { return len(h.present) }

// PresentWords returns the word ids with article support in ascending
// order. The returned slice is shared; do not modify.
func (h *Hyperparams) PresentWords() []int { return h.order }

// Dense materializes the full δ vector. Intended for small vocabularies
// (tests, the pixel experiments); the samplers use the sparse form.
func (h *Hyperparams) Dense() []float64 {
	out := make([]float64, h.V)
	for w := range out {
		out[w] = h.Epsilon
	}
	for w, x := range h.present {
		out[w] = x
	}
	return out
}

// Pow returns the λ-exponentiated vector δ^e used by the full Source-LDA
// model (§III-C1): each X_w is raised to the power e. As e→0 every entry
// approaches 1 (maximally relaxed prior); at e=1 the prior is the raw
// counts. The total accumulates in word-id order for reproducibility.
func (h *Hyperparams) Pow(e float64) *PoweredDelta {
	p := &PoweredDelta{
		V:        h.V,
		Exponent: e,
		Default:  math.Pow(h.Epsilon, e),
		vals:     make([]float64, len(h.order)),
		order:    h.order,
	}
	var sumPresent float64
	for i, w := range h.order {
		v := math.Pow(h.present[w], e)
		p.vals[i] = v
		sumPresent += v
	}
	p.Total = sumPresent + p.Default*float64(h.V-len(h.present))
	return p
}

// PoweredDelta is a precomputed δ^e vector with its total, consumed by the
// model build and the collapsed likelihood. The supported words' values sit
// in a slice parallel to the (ascending) word-id list the Hyperparams owns,
// so one Pow call allocates that slice and nothing else; every other word
// shares Default.
type PoweredDelta struct {
	// V is the vocabulary size.
	V int
	// Exponent is the power e the base vector was raised to.
	Exponent float64
	// Default is ε^e, the value of every absent word.
	Default float64
	// Total is Σ_w (δ_w)^e over the whole vocabulary.
	Total float64
	vals  []float64 // vals[i] = (δ_{order[i]})^e
	order []int
}

// Value returns (δ_w)^e, binary-searching the supported-word list.
func (p *PoweredDelta) Value(w int) float64 {
	if i := sort.SearchInts(p.order, w); i < len(p.order) && p.order[i] == w {
		return p.vals[i]
	}
	return p.Default
}

// NumPresent returns the number of words with article support.
func (p *PoweredDelta) NumPresent() int { return len(p.order) }

// ForEachPresent calls fn for every word with article support with its
// powered value, in ascending word-id order.
func (p *PoweredDelta) ForEachPresent(fn func(w int, v float64)) {
	for i, w := range p.order {
		fn(w, p.vals[i])
	}
}

// PresentWords returns the word ids with article support in ascending
// order. The returned slice is shared; do not modify.
func (p *PoweredDelta) PresentWords() []int { return p.order }

// Dense materializes the powered vector (for Dirichlet draws in the
// generative model and for tests).
func (p *PoweredDelta) Dense() []float64 {
	out := make([]float64, p.V)
	p.FillDense(out)
	return out
}

// FillDense writes the powered vector into out, which must have length V —
// Dense without the allocation, for callers that evaluate many exponents.
func (p *PoweredDelta) FillDense(out []float64) {
	for w := range out {
		out[w] = p.Default
	}
	for i, w := range p.order {
		out[w] = p.vals[i]
	}
}

// Source is an ordered collection of knowledge-source articles — the paper's
// input set of known potential topics (possibly a superset of the topics
// live in the corpus, §III-C3).
type Source struct {
	articles []*Article
	byLabel  map[string]int
}

// NewSource builds a source from articles; labels must be unique.
func NewSource(articles []*Article) (*Source, error) {
	s := &Source{articles: articles, byLabel: make(map[string]int, len(articles))}
	for i, a := range articles {
		if a == nil {
			return nil, fmt.Errorf("knowledge: nil article at index %d", i)
		}
		if _, dup := s.byLabel[a.Label]; dup {
			return nil, fmt.Errorf("knowledge: duplicate article label %q", a.Label)
		}
		s.byLabel[a.Label] = i
	}
	return s, nil
}

// MustNewSource is NewSource that panics on error, for tests and generators
// with known-good inputs.
func MustNewSource(articles []*Article) *Source {
	s, err := NewSource(articles)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of articles (the paper's B when the source is the
// full superset).
func (s *Source) Len() int { return len(s.articles) }

// Article returns the i-th article.
func (s *Source) Article(i int) *Article { return s.articles[i] }

// Articles returns the backing slice; callers must not modify it.
func (s *Source) Articles() []*Article { return s.articles }

// Label returns the label of the i-th article.
func (s *Source) Label(i int) string { return s.articles[i].Label }

// Labels returns all labels in article order.
func (s *Source) Labels() []string {
	out := make([]string, len(s.articles))
	for i, a := range s.articles {
		out[i] = a.Label
	}
	return out
}

// IndexOf returns the article index for a label.
func (s *Source) IndexOf(label string) (int, bool) {
	i, ok := s.byLabel[label]
	return i, ok
}

// Subset returns a new source restricted to the given article indices, in
// the given order.
func (s *Source) Subset(indices []int) *Source {
	arts := make([]*Article, len(indices))
	for i, idx := range indices {
		arts[i] = s.articles[idx]
	}
	return MustNewSource(arts)
}

// Hyperparams derives δ vectors for every article over a vocabulary of size
// v with smoothing ε.
func (s *Source) Hyperparams(v int, epsilon float64) []*Hyperparams {
	out := make([]*Hyperparams, len(s.articles))
	for i, a := range s.articles {
		out[i] = a.Hyperparams(v, epsilon)
	}
	return out
}

// Distributions returns the dense source distributions of every article over
// a vocabulary of size v.
func (s *Source) Distributions(v int) [][]float64 {
	out := make([][]float64, len(s.articles))
	for i, a := range s.articles {
		out[i] = a.Distribution(v)
	}
	return out
}

// SmoothedDistributions returns ε-smoothed dense distributions for every
// article.
func (s *Source) SmoothedDistributions(v int, epsilon float64) [][]float64 {
	out := make([][]float64, len(s.articles))
	for i, a := range s.articles {
		out[i] = a.SmoothedDistribution(v, epsilon)
	}
	return out
}

// WordSets returns, per article, the sorted word ids with article support —
// the "bags of words" the Concept-Topic Model consumes. When topN > 0 the
// set is restricted to the topN most frequent words of the article,
// mirroring the paper's CTM setup ("top 10,000 words by frequency", §IV-C).
func (s *Source) WordSets(v, topN int) [][]int {
	out := make([][]int, len(s.articles))
	for i, a := range s.articles {
		type wc struct{ w, n int }
		items := make([]wc, 0, len(a.Counts))
		for w, n := range a.Counts {
			if w >= 0 && w < v {
				items = append(items, wc{w, n})
			}
		}
		sort.Slice(items, func(x, y int) bool {
			if items[x].n != items[y].n {
				return items[x].n > items[y].n
			}
			return items[x].w < items[y].w
		})
		if topN > 0 && len(items) > topN {
			items = items[:topN]
		}
		ids := make([]int, len(items))
		for j, it := range items {
			ids[j] = it.w
		}
		sort.Ints(ids)
		out[i] = ids
	}
	return out
}
