package core

import (
	"math"
	"runtime"

	"sourcelda/internal/knowledge"
	"sourcelda/internal/parallel"
	"sourcelda/internal/smoothing"
)

// deltaStore materializes the λ-quadrature state of every source topic —
// the (δ_w)^{e_p} values and totals the Gibbs inner loop needs (§III-C's
// "Calculate g_t" preamble in Algorithm 1) — into flat arrays indexed by
// (topic, node) and a word-major CSR block for the sparse per-word values.
//
// The seed held this state as one map[int][]float64 per topic, costing a
// map probe (hash + bucket chase) per source topic per token. Here the
// sparse structure is compressed rows over words:
//
//	wordStart[w] .. wordStart[w+1] — the entry range of word w
//	entryTopic[e]                  — the source topic of entry e, ascending
//	                                 within each word's range
//	vals[e*P + p]                  — the P quadrature values (δ_w)^{e_p}
//
// One token's inner loop walks its word's entry range once, in topic order,
// in lockstep with the topic loop — no hashing, no per-entry search, and
// memory stays O(nnz) (article-supported words only) like the seed's maps,
// not O(V·S). Unsupported (word, topic) pairs share the per-topic defaults
// row ε^{e_p} — at superset scale that is nearly every pair, so whatever is
// computed from the defaults row alone (the sweep's default mass, Phi's and
// the held-out sampler's defaultProb, the initial-assignment prior) is
// evaluated once per topic by its consumer and never per word or per token.
// All (s, p) matrices are flattened s*P+p. Everything except
// weights is fixed for the whole chain because δ derives from the knowledge
// source, not the corpus; weights carries the current λ posterior per topic
// (prior mass reweighted each sweep unless Options.FreezeLambdaWeights).
type deltaStore struct {
	S, P, V int

	// nodes[p] is the raw λ quadrature node, shared by every topic.
	nodes []float64
	// priorLogW[p] is log of the normalized N(µ,σ) node mass, shared.
	priorLogW []float64
	// exponents[s*P+p] = g_s(node_p) (or node_p without smoothing).
	exponents []float64
	// weights[s*P+p] is the topic's current normalized quadrature weight.
	weights []float64
	// totals[s*P+p] = Σ_a (δ_a)^{e_p} over the whole vocabulary.
	totals []float64
	// defaults[s*P+p] = ε^{e_p}, the value row of unsupported words.
	defaults []float64

	wordStart  []int32
	entryTopic []int32
	vals       []float64

	// hyper[s] is retained for the collapsed likelihood (LogLikelihood),
	// which re-powers δ at the posterior-mean exponent.
	hyper []*knowledge.Hyperparams
}

// newDeltaStore precomputes the quadrature state for every article of src.
func newDeltaStore(src *knowledge.Source, V int, o *Options) *deltaStore {
	var nodes, weights []float64
	if o.LambdaMode == LambdaIntegrated {
		nodes, weights = quadratureNodes(o.Mu, o.Sigma, o.QuadraturePoints)
	} else {
		nodes, weights = []float64{o.Lambda}, []float64{1}
	}
	S, P := src.Len(), len(nodes)
	ds := &deltaStore{
		S: S, P: P, V: V,
		nodes:     append([]float64(nil), nodes...),
		priorLogW: make([]float64, P),
		exponents: make([]float64, S*P),
		weights:   make([]float64, S*P),
		totals:    make([]float64, S*P),
		defaults:  make([]float64, S*P),
		hyper:     make([]*knowledge.Hyperparams, S),
	}
	for p, w := range weights {
		if w <= 0 {
			ds.priorLogW[p] = math.Inf(-1)
		} else {
			ds.priorLogW[p] = math.Log(w)
		}
	}

	// Pass 1: per-topic hyperparameters and g estimation — the bulk of the
	// build (one JS-divergence curve over V words per topic). Topics are
	// independent: each estimator is seeded from its topic index and every
	// goroutine writes only its own topics' slots, so the result does not
	// depend on GOMAXPROCS.
	gs := make([]*smoothing.G, S)
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	pool.Run(S, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			art := src.Article(s)
			h := art.Hyperparams(V, o.Epsilon)
			ds.hyper[s] = h
			if o.UseSmoothing {
				cfg := o.SmoothingConfig
				cfg.Seed = o.SmoothingConfig.Seed + int64(s)
				gs[s] = smoothing.Estimate(h, art.SmoothedDistribution(V, o.Epsilon), cfg)
			} else {
				gs[s] = smoothing.Identity()
			}
			copy(ds.weights[s*P:(s+1)*P], weights)
		}
	})
	pool.Close()

	// Count per-word support to size the CSR block.
	counts := make([]int32, V+1)
	nnz := 0
	for _, h := range ds.hyper {
		for _, w := range h.PresentWords() {
			counts[w+1]++
			nnz++
		}
	}

	// Exclusive prefix sums give each word its entry range; iterating
	// topics in ascending order below keeps every range topic-sorted.
	ds.wordStart = counts
	for w := 0; w < V; w++ {
		ds.wordStart[w+1] += ds.wordStart[w]
	}
	ds.entryTopic = make([]int32, nnz)
	ds.vals = make([]float64, nnz*P)
	next := make([]int32, V)
	copy(next, ds.wordStart[:V])

	// Pass 2: powered values per node. Every node of one topic shares the
	// same present-word set, in ascending word order, so entry ids are
	// assigned on the first node and reused (in the same order) on the rest.
	entryIDs := make([]int32, 0, 256)
	for s := 0; s < S; s++ {
		h := ds.hyper[s]
		entryIDs = entryIDs[:0]
		for p, node := range nodes {
			e := node
			if o.UseSmoothing {
				e = gs[s].Eval(node)
			}
			ds.exponents[s*P+p] = e
			pd := h.Pow(e)
			ds.defaults[s*P+p] = pd.Default
			ds.totals[s*P+p] = pd.Total
			if p == 0 {
				pd.ForEachPresent(func(w int, v float64) {
					id := next[w]
					next[w]++
					ds.entryTopic[id] = int32(s)
					ds.vals[int(id)*P] = v
					entryIDs = append(entryIDs, id)
				})
				continue
			}
			i := 0
			pd.ForEachPresent(func(w int, v float64) {
				ds.vals[int(entryIDs[i])*P+p] = v
				i++
			})
		}
	}
	return ds
}

// wordEntries returns word w's CSR window: the supporting topic ids (in
// ascending order) and the entry index of the first.
func (ds *deltaStore) wordEntries(w int) (topics []int32, base int) {
	lo, hi := ds.wordStart[w], ds.wordStart[w+1]
	return ds.entryTopic[lo:hi], int(lo)
}

// searchTopic returns the first index of sup whose topic id is >= s — the
// lower bound over a word's (ascending) supporting-topic window, shared by
// the sweep hot path's cursor positioning and the cold-path lookups.
func searchTopic(sup []int32, s int) int {
	lo, hi := 0, len(sup)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(sup[mid]) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// values returns the P quadrature values (δ_w)^{e_p} for word w under
// source topic s — the word's value row, or the topic's defaults row. It
// binary-searches the word's support window and is meant for the cold
// paths that visit few cells (an article's own words and non-zero counts in
// Phi, the λ posterior's non-zero counts); the sweep hot path walks the
// window in lockstep with the topic loop instead.
func (ds *deltaStore) values(s, w int) []float64 {
	sup, base := ds.wordEntries(w)
	if i := searchTopic(sup, s); i < len(sup) && int(sup[i]) == s {
		e := base + i
		return ds.vals[e*ds.P : (e+1)*ds.P]
	}
	return ds.defaults[s*ds.P : (s+1)*ds.P]
}

// wordProb returns P(w | source topic s) under the collapsed conditional
// given nw (tokens of w in the topic, excluding the current token) and nsum
// (total tokens in the topic): the λ-integral of Eq. 3 evaluated by
// quadrature, or the single fixed-λ ratio of §III-A.
func (ds *deltaStore) wordProb(s int, vals []float64, nw, nsum float64) float64 {
	base := s * ds.P
	if ds.P == 1 {
		return (nw + vals[0]) / (nsum + ds.totals[base])
	}
	var p float64
	for i, v := range vals {
		p += ds.weights[base+i] * (nw + v) / (nsum + ds.totals[base+i])
	}
	return p
}

// defaultProb returns wordProb for a word outside source topic s's article
// that the topic holds no tokens of — Definition 3's shared ε^{e_p} row at
// n_wt = 0. It depends on the topic alone (its total, λ weights and
// exponents), so callers evaluate it once per topic, not once per word.
func (ds *deltaStore) defaultProb(s int, nsum float64) float64 {
	return ds.wordProb(s, ds.defaults[s*ds.P:(s+1)*ds.P], 0, nsum)
}

// topicWeights returns the quadrature weight row of source topic s.
func (ds *deltaStore) topicWeights(s int) []float64 {
	return ds.weights[s*ds.P : (s+1)*ds.P]
}
