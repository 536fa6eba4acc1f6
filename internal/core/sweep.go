package core

import (
	"math"

	"sourcelda/internal/mathx"
	"sourcelda/internal/rng"
)

// gibbsView is the working state one goroutine sweeps with: the count slabs
// it samples against (the global slabs for the sequential mode, shard-local
// copies in sharded mode), cached per-topic denominators, and the current
// token's row pointers. It owns the token draw: fill evaluates the collapsed
// conditional of Eq. 2/3 over all T topics with direct slice indexing — no
// closure call per topic, no map probe per word, and no division in the token
// loop — and draw scans it (or, under SamplerSparse, walks the buckets).
//
// The denominator caches are the key: the conditional divides by
// (n_t + Vβ) for free topics and (n_t + Σδ^{e_p}) per quadrature node for
// source topics, yet a resampled token changes n_t for only two topics.
// Caching the reciprocals and refreshing just those two rows replaces
// K + S·P divisions per token with at most 2·P.
//
// The second cache is the default mass. The knowledge source is a superset
// (§III-C3), so for almost every (token, source topic) pair the word is
// outside the topic's article and the topic holds no tokens of it: the pair's
// quadrature runs over the shared defaults row ε^{e_p} with n_wt = 0 and is a
// constant of the topic, not of the word. defMass holds that constant per
// topic; fill runs the P-term loop only for supported pairs and non-zero
// counts. The refresh invariant is wInv's: refreshTopic recomputes both after
// any change to the topic's total, λ weights or disabled flag, and defMass is
// accumulated exactly as the loop it stands in for, so both kernels draw the
// chain they drew without the cache.
type gibbsView struct {
	m          *ChainRuntime
	K, T, S, P int
	alpha      float64
	beta       float64
	vBeta      float64

	wordTopic  []int32
	topicTotal []int32

	// freeDen[t] = 1/(topicTotal[t] + Vβ) for free topics t < K — the
	// cached smoothing denominator of Eq. 2; 0 when the topic is disabled.
	freeDen []float64
	// wInv[s*P+p] = weights[s*P+p] / (topicTotal[K+s] + totals[s*P+p]),
	// the quadrature weight pre-divided by its node denominator, so one
	// source-topic probability is a P-term multiply-accumulate; 0 when the
	// topic is disabled.
	wInv []float64
	// defMass[s] = Σ_p defaults[s*P+p]·wInv[s*P+p], source topic s's whole
	// quadrature for a word outside its article that it holds no tokens of;
	// refreshed together with wInv (and so 0 when the topic is disabled).
	defMass []float64

	// Per-token state, set by setToken and the caller before fill runs.
	tokenRow []int32 // wordTopic row of the current word
	supRow   []int32 // supporting source topics of the current word (CSR)
	supBase  int     // deltaStore entry index of supRow[0]
	docRow   []int32 // docTopic row of the current document
	curWord  int     // word id of the current token

	// sparse holds the bucket-decomposed totals and nonzero lists of the
	// SparseLDA-style sampler (see sparse.go); nil unless Options.Sampler
	// is SamplerSparse. When set, dec/inc/refreshTopic keep it current in
	// O(1)/O(P) per count change.
	sparse *sparseState

	// cum is the dense draw's scratch: the T conditionals, then their
	// running sums.
	cum []float64
}

func newGibbsView(m *ChainRuntime, wordTopic, topicTotal []int32) *gibbsView {
	useSparse := m.opts.Sampler == SamplerSparse
	v := &gibbsView{
		m: m, K: m.K, T: m.T, S: m.S, P: m.delta.P,
		alpha: m.opts.Alpha, beta: m.opts.Beta,
		vBeta:      float64(m.V) * m.opts.Beta,
		wordTopic:  wordTopic,
		topicTotal: topicTotal,
		freeDen:    make([]float64, m.K),
		wInv:       make([]float64, m.S*m.delta.P),
		defMass:    make([]float64, m.S),
		cum:        make([]float64, m.T),
	}
	if useSparse {
		v.sparse = newSparseState(v)
	}
	v.rebuildDenoms()
	if useSparse {
		// The slabs may already hold a restored chain's counts; derive the
		// nonzero lists from them.
		v.sparse.rebuildLists()
	}
	return v
}

// fill writes the current token's collapsed conditional into out, which has
// length T: out[t] is the unnormalized P(z = t | …) of Eq. 2 (free topics) or
// Eq. 3 with λ integrated by quadrature (source topics). A source topic
// outside the word's support row that holds no tokens of the word takes its
// cached default mass instead of the P-term loop. Disabled topics fall out
// with probability zero because their cached denominators are zeroed.
func (v *gibbsView) fill(out []float64) {
	row, doc := v.tokenRow, v.docRow
	for t := 0; t < v.K; t++ {
		out[t] = (float64(row[t]) + v.beta) * v.freeDen[t] * (float64(doc[t]) + v.alpha)
	}
	P := v.P
	ds := v.m.delta
	// The word's supporting topics (supRow) are ascending, as is the topic
	// loop: advance a cursor in lockstep instead of searching per topic.
	sup := v.supRow
	idx := 0
	for t := v.K; t < v.T; t++ {
		s := t - v.K
		var vals []float64
		if idx < len(sup) && int(sup[idx]) == s {
			e := v.supBase + idx
			vals = ds.vals[e*P : (e+1)*P]
			idx++
		} else if row[t] == 0 {
			// Unsupported word, no tokens: the topic's cached default mass.
			out[t] = v.defMass[s] * (float64(doc[t]) + v.alpha)
			continue
		} else {
			vals = ds.defaults[s*P : (s+1)*P]
		}
		wi := v.wInv[s*P : (s+1)*P]
		nw := float64(row[t])
		var acc float64
		for p := 0; p < P; p++ {
			acc += (nw + vals[p]) * wi[p]
		}
		out[t] = acc * (float64(doc[t]) + v.alpha)
	}
}

// draw samples the current token's topic with uniform variate u; setToken and
// setDoc must point the view at the token and dec must already have removed
// it from the counts. The dense kernel is Algorithm 1's inner loop: fill, a
// running sum, and a binary search for u·total. The sparse kernel walks its
// buckets instead and comes here only on degenerate mass, so both kernels
// degrade identically. Either way a draw consumes exactly the one variate it
// is handed, which is what lets a checkpoint record the chain's randomness as
// bare stream positions.
func (v *gibbsView) draw(u float64) int {
	if v.sparse != nil {
		if t, ok := v.sparse.draw(u); ok {
			return t
		}
	}
	v.fill(v.cum)
	mathx.PrefixSums(v.cum)
	return searchTarget(v.cum, u)
}

// searchTarget maps u in [0, 1) onto the cumulative vector and
// binary-searches for the selected index. A non-positive or non-finite
// total falls back to mathx.SelectPositiveSupport over the increments — the
// same restricted-support contract rng.Categorical applies to raw weights —
// and panics when no index has positive mass: with valid priors every
// enabled topic's mass is strictly positive, so an all-zero vector means
// corrupted sampler state, not a samplable distribution.
func searchTarget(cum []float64, u float64) int {
	total := cum[len(cum)-1]
	if total > 0 && !math.IsNaN(total) && !math.IsInf(total, 0) {
		return mathx.SearchCumulative(cum, u*total)
	}
	idx, ok := mathx.SelectPositiveSupport(len(cum), u, func(i int) float64 {
		if i == 0 {
			return cum[0]
		}
		return cum[i] - cum[i-1]
	})
	if !ok {
		panic("core: token draw received no positive probability mass")
	}
	return idx
}

// setToken points the view at word w's count row and sparse-value window.
func (v *gibbsView) setToken(w int) {
	v.curWord = w
	v.tokenRow = v.wordTopic[w*v.T : (w+1)*v.T : (w+1)*v.T]
	v.supRow, v.supBase = v.m.delta.wordEntries(w)
}

// setDoc points the view at a document's count row and, for the sparse
// sampler, rebuilds the document bucket's nonzero-topic list.
func (v *gibbsView) setDoc(row []int32) {
	v.docRow = row
	if v.sparse != nil {
		v.sparse.setDoc(row)
	}
}

// resample redraws token i of zd — a token of word w in the document whose
// counts docRow currently points at — from RNG stream r. This is the one
// place the dec → draw → inc protocol lives; the sequential sweep, the
// sharded sweep, prune resampling and AppendDocs fold-in all go through it.
func (v *gibbsView) resample(zd []int, i, w int, r *rng.RNG) {
	v.setToken(w)
	v.dec(zd[i])
	zd[i] = v.draw(r.Float64())
	v.inc(zd[i])
}

// dec removes the current token from topic t; setToken and docRow must be
// current. inc is its inverse.
func (v *gibbsView) dec(t int) {
	v.tokenRow[t]--
	v.docRow[t]--
	v.topicTotal[t]--
	if v.sparse != nil {
		v.sparse.noteDec(v.curWord, t)
	}
	v.refreshTopic(t)
}

func (v *gibbsView) inc(t int) {
	v.tokenRow[t]++
	v.docRow[t]++
	v.topicTotal[t]++
	if v.sparse != nil {
		v.sparse.noteInc(v.curWord, t)
	}
	v.refreshTopic(t)
}

// refreshTopic recomputes topic t's cached denominators — and, for a source
// topic, the default mass derived from them — after its total changed (or
// its disabled flag / quadrature weights did), keeping the sparse bucket
// totals in step with the same change. Every write to topicTotal, weights or
// disabled that a view samples against must be followed by this call (or
// rebuildDenoms) before the next fill: wInv and defMass are valid only
// relative to the values they were computed from.
func (v *gibbsView) refreshTopic(t int) {
	if t < v.K {
		den := 0.0
		if !v.m.disabled[t] {
			den = 1 / (float64(v.topicTotal[t]) + v.vBeta)
		}
		if v.sparse != nil {
			v.sparse.freeSmooth += v.alpha * v.beta * (den - v.freeDen[t])
		}
		v.freeDen[t] = den
		return
	}
	s := t - v.K
	base := s * v.P
	wi := v.wInv[base : base+v.P]
	ds := v.m.delta
	if v.m.disabled[t] {
		clear(wi)
	} else {
		tot := float64(v.topicTotal[t])
		for p := range wi {
			wi[p] = ds.weights[base+p] / (tot + ds.totals[base+p])
		}
	}
	// The default mass must be the bits fill's P-term loop produces over the
	// defaults row at n_wt = 0, where (n_wt + d_p) is d_p exactly: the same
	// products, accumulated left to right from zero.
	old := v.defMass[s]
	var dm float64
	for p, d := range ds.defaults[base : base+v.P] {
		dm += d * wi[p]
	}
	v.defMass[s] = dm
	if v.sparse != nil {
		v.sparse.refreshSource(s, old)
	}
}

// rebuildDenoms refreshes every topic's cached denominators — needed after
// bulk count changes (shard reconciliation), λ posterior reweighting, and
// topic pruning — and resyncs the sparse bucket totals to the fresh
// per-topic values. It does NOT rescan the word-topic slab: the sparse
// nonzero lists are maintained incrementally and only go stale where the
// slab itself is bulk overwritten, which those sites handle explicitly
// (rebuildLists / listsStale).
func (v *gibbsView) rebuildDenoms() {
	for t := 0; t < v.T; t++ {
		v.refreshTopic(t)
	}
	if v.sparse != nil {
		v.sparse.resyncTotals()
	}
}

// shardView is one document shard of the sharded sweep mode: a gibbsView
// over private copies of the word-topic slabs and the shard's own
// deterministic RNG stream.
type shardView struct {
	view   *gibbsView
	r      *rng.RNG
	lo, hi int // document range [lo, hi)
}

// sweepRange resamples every token of documents [lo, hi) through view v
// from RNG stream r — the one corpus-traversal loop the sequential sweep and
// every shard share.
func (m *ChainRuntime) sweepRange(v *gibbsView, lo, hi int, r *rng.RNG) {
	for d := lo; d < hi; d++ {
		v.setDoc(m.counts.docRow(d))
		zd := m.z[d]
		for i, w := range m.c.Docs[d].Words {
			v.resample(zd, i, w, r)
		}
	}
}

// sweepSequential is Algorithm 1's corpus loop: tokens are resampled one at
// a time against the live global counts, so the chain is exact collapsed
// Gibbs.
func (m *ChainRuntime) sweepSequential() {
	m.sweepRange(m.seq, 0, m.D, m.streams[0])
}

// sweepSharded is the document-sharded data-parallel sweep (AD-LDA style,
// Newman et al.): every shard resamples its documents against a private
// copy of the word-topic counts taken at the sweep barrier, and the global
// counts are rebuilt from the assignments afterwards. With more than one
// shard the chain is an approximation of collapsed Gibbs (counts are stale
// within a sweep across shards); with exactly one shard it IS the
// sequential chain — same seed, same assignments — because the single
// shard's copy sees every one of its own updates.
//
// Determinism: shard i always covers the same document range and draws from
// the same rng.NewStream(seed, i) stream, so results depend on the shard
// count but never on worker scheduling.
func (m *ChainRuntime) sweepSharded() {
	if len(m.shards) == 1 {
		// A single shard IS the sequential chain: its view aliases the
		// global slabs (see buildShards), so there is no copy, no barrier
		// rebuild — just the shard's RNG stream, which is the sequential
		// mode's.
		m.runShard(m.shards[0])
		return
	}
	m.pool.Run(len(m.shards), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.runShard(m.shards[i])
		}
	})
	// Shard barrier: fold every shard's local deltas back into the global
	// store. Rebuilding from assignments is equivalent to summing the
	// per-shard deltas (each token's reassignment is -1/+1 on its word row)
	// and touches each token once, deterministically. rebuildCounts re-adds
	// the distributed external overlay, which the assignments don't cover.
	m.rebuildCounts()
	m.seq.rebuildDenoms()
	if m.seq.sparse != nil {
		// The global slab was just rewritten underneath the sequential
		// view's nonzero lists. Their only consumer here is prune-time
		// resampling, so defer the O(V·T) rescan until pruning asks.
		m.seq.sparse.listsStale = true
	}
}

func (m *ChainRuntime) runShard(sh *shardView) {
	v := sh.view
	if v != m.seq {
		copy(v.wordTopic, m.counts.wordTopic)
		copy(v.topicTotal, m.counts.topicTotal)
		v.rebuildDenoms()
		if v.sparse != nil {
			// The slab copy invalidated the shard's nonzero lists.
			v.sparse.rebuildLists()
		}
	}
	m.sweepRange(v, sh.lo, sh.hi, sh.r)
}
