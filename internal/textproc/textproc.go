// Package textproc implements the text-processing substrate: tokenization,
// stop-word filtering, vocabulary interning, and TF-IDF vectorization. The
// paper's IR-LDA labeling baseline ("cosine similarity of documents mapped to
// TF-IDF vectors with TF-IDF weighted query vectors formed from the top 10
// words per topic", §IV-C) is built on these pieces.
package textproc

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Tokenize lower-cases the input and splits it into alphanumeric word
// tokens. Apostrophes inside words are dropped ("don't" → "dont"), every
// other non-alphanumeric rune is a separator.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'':
			// drop
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// defaultStopwords is a compact English stop list adequate for the synthetic
// corpora used here; real deployments can supply their own via NewStopwords.
var defaultStopwords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from",
	"had", "has", "have", "he", "her", "his", "i", "in", "is", "it", "its",
	"nor", "not", "of", "on", "or", "she", "so", "that", "the", "their",
	"them", "then", "there", "these", "they", "this", "to", "was", "we",
	"were", "what", "when", "which", "who", "will", "with", "you", "your",
	"been", "being", "do", "does", "did", "if", "into", "no", "such", "than",
	"too", "very", "can", "could", "may", "might", "must", "shall", "should",
	"would", "about", "after", "all", "also", "am", "any", "because", "before",
	"between", "both", "each", "few", "more", "most", "other", "our", "out",
	"over", "own", "same", "some", "through", "under", "until", "up", "while",
}

// Stopwords is a set of words to exclude from modeling.
type Stopwords struct {
	set map[string]bool
}

// NewStopwords builds a stop list from the given words (lower-cased).
func NewStopwords(words []string) *Stopwords {
	s := &Stopwords{set: make(map[string]bool, len(words))}
	for _, w := range words {
		s.set[strings.ToLower(w)] = true
	}
	return s
}

// DefaultStopwords returns the built-in English stop list.
func DefaultStopwords() *Stopwords { return NewStopwords(defaultStopwords) }

// Contains reports whether w is a stop word.
func (s *Stopwords) Contains(w string) bool { return s.set[strings.ToLower(w)] }

// Filter returns tokens with stop words removed.
func (s *Stopwords) Filter(tokens []string) []string {
	out := tokens[:0:0]
	for _, t := range tokens {
		if !s.set[t] {
			out = append(out, t)
		}
	}
	return out
}

// Vocabulary interns word strings to dense integer ids. The zero value is
// not usable; construct with NewVocabulary.
type Vocabulary struct {
	ids   map[string]int
	words []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]int)}
}

// Add interns w and returns its id, creating a new id on first sight.
func (v *Vocabulary) Add(w string) int {
	if id, ok := v.ids[w]; ok {
		return id
	}
	id := len(v.words)
	v.ids[w] = id
	v.words = append(v.words, w)
	return id
}

// ID returns the id of w and whether it is present.
func (v *Vocabulary) ID(w string) (int, bool) {
	id, ok := v.ids[w]
	return id, ok
}

// Word returns the string for id; it panics on out-of-range ids.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// Size returns the number of distinct interned words (the paper's V).
func (v *Vocabulary) Size() int { return len(v.words) }

// Words returns the interned words in id order. The returned slice is shared;
// do not modify it.
func (v *Vocabulary) Words() []string { return v.words }

// EncodeTokens converts tokens to ids, interning unseen words when grow is
// true and dropping them otherwise.
func (v *Vocabulary) EncodeTokens(tokens []string, grow bool) []int {
	out := make([]int, 0, len(tokens))
	for _, t := range tokens {
		if grow {
			out = append(out, v.Add(t))
			continue
		}
		if id, ok := v.ids[t]; ok {
			out = append(out, id)
		}
	}
	return out
}

// TFIDF builds term-frequency / inverse-document-frequency vectors over a
// fixed vocabulary, the representation behind the IR labeling baseline.
type TFIDF struct {
	idf  []float64
	vlen int
}

// NewTFIDF computes smoothed IDF weights, idf(w) = ln((1+N)/(1+df(w))) + 1,
// from the document collection docs given as bags of word ids.
func NewTFIDF(docs [][]int, vocabSize int) *TFIDF {
	df := make([]int, vocabSize)
	for _, doc := range docs {
		seen := make(map[int]bool, len(doc))
		for _, w := range doc {
			if w >= 0 && w < vocabSize && !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	n := float64(len(docs))
	idf := make([]float64, vocabSize)
	for w := range idf {
		idf[w] = math.Log((1+n)/(1+float64(df[w]))) + 1
	}
	return &TFIDF{idf: idf, vlen: vocabSize}
}

// VocabSize returns the vocabulary size the transformer was built over.
func (t *TFIDF) VocabSize() int { return t.vlen }

// IDF returns the IDF weight for word id w.
func (t *TFIDF) IDF(w int) float64 { return t.idf[w] }

// Vector returns the L2-normalized TF-IDF vector of a document given as word
// ids. Out-of-range ids are ignored.
func (t *TFIDF) Vector(doc []int) []float64 {
	vec := make([]float64, t.vlen)
	for _, w := range doc {
		if w >= 0 && w < t.vlen {
			vec[w]++
		}
	}
	var norm float64
	for w := range vec {
		if vec[w] > 0 {
			vec[w] *= t.idf[w]
			norm += vec[w] * vec[w]
		}
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for w := range vec {
			vec[w] *= inv
		}
	}
	return vec
}

// WeightedQueryVector builds the TF-IDF-weighted query vector the IR labeler
// uses: each (word, weight) pair contributes weight × idf(word), then the
// vector is L2-normalized.
func (t *TFIDF) WeightedQueryVector(words []int, weights []float64) []float64 {
	if len(words) != len(weights) {
		panic("textproc: WeightedQueryVector length mismatch")
	}
	vec := make([]float64, t.vlen)
	for i, w := range words {
		if w >= 0 && w < t.vlen {
			vec[w] += weights[i] * t.idf[w]
		}
	}
	var norm float64
	for _, x := range vec {
		norm += x * x
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for w := range vec {
			vec[w] *= inv
		}
	}
	return vec
}

// TopWords returns the n highest-probability word ids of the distribution
// probs, in descending probability order with ties broken by lower id. n is
// a display count, far below len(probs): one pass keeps the best n seen so
// far in order (O(V) comparisons plus an O(n) shift per word that enters)
// instead of sorting the whole vocabulary per topic. n ≤ 0 returns an empty
// slice.
func TopWords(probs []float64, n int) []int {
	n = min(n, len(probs))
	if n <= 0 {
		return []int{}
	}
	top := make([]int, 0, n)
	for w, p := range probs {
		// Ids arrive ascending, so a word displaces only strictly smaller
		// probabilities and a tie keeps the lower id.
		if len(top) == n && !(p > probs[top[n-1]]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return probs[top[i]] < p })
		if len(top) < n {
			top = append(top, 0)
		}
		copy(top[i+1:], top[i:])
		top[i] = w
	}
	return top
}
