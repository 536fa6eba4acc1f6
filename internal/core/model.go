package core

import (
	"errors"
	"math"
	"strconv"
	"time"

	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/parallel"
	"sourcelda/internal/rng"
)

// Model is a fitted (or in-progress) Source-LDA chain: a ChainRuntime (the
// count-slab and sampler state every chain mutation drives — see runtime.go)
// plus the training-orchestration API (Fit, Run, RunWithHook, Result). All
// chain-state fields and methods are promoted from the embedded runtime.
type Model struct {
	ChainRuntime
}

// Runtime exposes the model's chain runtime — the mutable chain state both
// training sweeps and the incremental AppendDocs path drive. The returned
// pointer aliases the model; it is not a copy.
func (m *Model) Runtime() *ChainRuntime { return &m.ChainRuntime }

// Fit runs Source-LDA collapsed Gibbs sampling over corpus c with knowledge
// source src and returns the fitted model. The model owns a worker pool when
// the sharded sweep mode is selected; Close releases it.
func Fit(c *corpus.Corpus, src *knowledge.Source, opts Options) (*Model, error) {
	m, err := NewModel(c, src, opts)
	if err != nil {
		return nil, err
	}
	m.Run(m.opts.Iterations)
	return m, nil
}

// NewModel validates options, precomputes the per-topic quadrature state and
// returns an initialized (randomly-assigned) chain that has not yet swept.
func NewModel(c *corpus.Corpus, src *knowledge.Source, opts Options) (*Model, error) {
	m, err := newUninitializedModel(c, src, opts)
	if err != nil {
		return nil, err
	}
	m.initAssignments()
	m.buildViews()
	return m, nil
}

// newUninitializedModel validates options and allocates a chain whose count
// slabs and assignments are still zero. Callers must populate assignments
// (initAssignments for a fresh chain, the checkpoint restore path for a
// resumed one) and then call buildViews, in that order: the views cache
// per-topic denominators computed from the counts at construction time.
func newUninitializedModel(c *corpus.Corpus, src *knowledge.Source, opts Options) (*Model, error) {
	opts.applyDefaults()
	if err := opts.validate(c, src); err != nil {
		return nil, err
	}
	m := &Model{ChainRuntime: ChainRuntime{
		opts: opts,
		c:    c,
		src:  src,
		r:    rng.New(opts.Seed),
		K:    opts.NumFreeTopics,
		S:    src.Len(),
		V:    c.VocabSize(),
		D:    c.NumDocs(),
	}}
	m.T = m.K + m.S
	m.disabled = make([]bool, m.T)
	m.delta = newDeltaStore(src, m.V, &m.opts)
	m.counts = newCountStore(m.V, m.T)
	m.z = make([][]int, m.D)
	for d := range m.z {
		m.z[d] = make([]int, len(c.Docs[d].Words))
	}
	return m, nil
}

// buildViews constructs the deterministic RNG streams, the sequential
// sampling view and — for the sharded sweep mode, the only one that runs
// anything concurrently — the shard views and the worker pool Threads
// bounds. It must run after the count slabs hold the chain's current
// assignments — the views cache reciprocal denominators derived from them.
func (m *ChainRuntime) buildViews() {
	opts := &m.opts
	m.seq = newGibbsView(m, m.counts.wordTopic, m.counts.topicTotal)

	nStreams := opts.numStreams(m.D)
	m.streams = make([]*rng.RNG, nStreams)
	for i := range m.streams {
		m.streams[i] = rng.NewStream(opts.Seed, int64(i))
	}
	if opts.SweepMode == SweepShardedDocs {
		m.pool = parallel.NewPool(opts.Threads)
		m.buildShards(nStreams)
	}
}

// buildShards (re)constructs the per-shard working states of SweepShardedDocs
// over the current document count. It runs at view construction and again
// after AppendDocs grows the corpus (rebalanceShards), so shard document
// ranges always partition the live corpus.
func (m *ChainRuntime) buildShards(nStreams int) {
	m.shards = make([]*shardView, nStreams)
	for i := range m.shards {
		// Balanced split: every shard owns at least one document (the
		// shard count is capped at D in numStreams), so no shard pays
		// the per-sweep slab copy without sampling anything.
		lo, hi := i*m.D/nStreams, (i+1)*m.D/nStreams
		// A single shard aliases the sequential view over the global
		// slabs, so the "exact" sharded configuration runs at
		// sequential speed with no per-sweep copy or reconciliation.
		view := m.seq
		if nStreams > 1 {
			view = newGibbsView(m, make([]int32, m.V*m.T), make([]int32, m.T))
		}
		m.shards[i] = &shardView{view: view, r: m.streams[i], lo: lo, hi: hi}
	}
}

// Close releases the sharded sweep mode's worker pool. It is safe to call on
// sequential chains (which have none) and more than once.
func (m *ChainRuntime) Close() {
	if m.pool != nil {
		m.pool.Close()
	}
}

// quadratureNodes returns the λ nodes and normalized N(µ,σ) weights over
// [0, 1]. σ = 0 degenerates to a single node at clamp(µ, 0, 1).
func quadratureNodes(mu, sigma float64, a int) (nodes, weights []float64) {
	if sigma == 0 {
		node := mu
		if node < 0 {
			node = 0
		}
		if node > 1 {
			node = 1
		}
		return []float64{node}, []float64{1}
	}
	nodes = make([]float64, a)
	weights = make([]float64, a)
	var total float64
	for p := 0; p < a; p++ {
		x := (float64(p) + 0.5) / float64(a)
		nodes[p] = x
		d := (x - mu) / sigma
		w := math.Exp(-0.5 * d * d)
		weights[p] = w
		total += w
	}
	if total <= 0 {
		for p := range weights {
			weights[p] = 1 / float64(a)
		}
		return nodes, weights
	}
	for p := range weights {
		weights[p] /= total
	}
	return nodes, weights
}

// initAssignments draws each token's initial topic from the model priors
// (free topics uniform at β-level, source topics at their δ-based word
// probability). Unlike uniform-random initialization this starts every
// source topic at its knowledge-source identity, which the collapsed chain
// then refines — without it, the early count matrices are pure noise and
// the λ posterior (and slow-mixing chains generally) can lock onto a bad
// mode.
func (m *ChainRuntime) initAssignments() {
	prior, supProb := m.initPrior(), m.initSupportProbs()
	probs := make([]float64, m.T)
	for d, doc := range m.c.Docs {
		for i, w := range doc.Words {
			m.initWordProbs(prior, supProb, w, probs)
			k := m.r.Categorical(probs)
			m.z[d][i] = k
			m.counts.add(w, k)
		}
	}
}

// initWordProbs writes word w's initial-assignment distribution into probs:
// the shared prior vector, overwritten at the topics whose articles hold w.
func (m *ChainRuntime) initWordProbs(prior, supProb []float64, w int, probs []float64) {
	copy(probs, prior)
	sup, base := m.delta.wordEntries(w)
	for j, s := range sup {
		probs[m.K+int(s)] = supProb[base+j]
	}
}

// initSupportProbs returns, per CSR entry of the δ store, the empty-chain
// word probability of that (word, source topic) pair. A word's tokens all
// start from the same distribution, so the quadrature runs once per
// supported pair instead of once per token.
func (m *ChainRuntime) initSupportProbs() []float64 {
	ds := m.delta
	out := make([]float64, len(ds.entryTopic))
	for e, s := range ds.entryTopic {
		out[e] = ds.wordProb(int(s), ds.vals[e*ds.P:(e+1)*ds.P], 0, 0)
	}
	return out
}

// initPrior returns the T-vector an empty chain assigns a word no article
// supports: β/Vβ for every free topic, the default-δ probability ε^e/Σδ^e
// (λ-integrated) for every source topic. It is the same for every token, so
// initAssignments builds it once.
func (m *ChainRuntime) initPrior() []float64 {
	prior := make([]float64, m.T)
	beta := m.opts.Beta
	vBeta := float64(m.V) * beta
	freeProb := beta / vBeta // uniform over V for an empty free topic
	for t := 0; t < m.K; t++ {
		prior[t] = freeProb
	}
	for s := 0; s < m.S; s++ {
		prior[m.K+s] = m.delta.defaultProb(s, 0)
	}
	return prior
}

// Run performs the given number of collapsed Gibbs sweeps (Algorithm 1's
// outer loop); it can be called repeatedly to extend a chain.
func (m *Model) Run(iterations int) {
	_ = m.RunWithHook(iterations, nil)
}

// SweepHook observes a chain after each completed sweep. sweep is the global
// 1-based sweep index (it keeps counting across Run calls and checkpoint
// resumes). The hook may inspect the model — and capture a Checkpoint — but
// must not mutate it. Returning a non-nil error stops the run before the
// next sweep; return ErrStopTraining for a clean early stop.
type SweepHook func(sweep int, m *Model) error

// ErrStopTraining is the sentinel a SweepHook returns to stop a run early
// without signaling failure: RunWithHook returns it verbatim, and callers
// that support early stopping treat it as a successful (partial) fit.
var ErrStopTraining = errors.New("core: training stopped by sweep hook")

// RunWithHook performs up to iterations collapsed Gibbs sweeps, invoking
// hook after each one. It returns nil after completing all sweeps, or the
// hook's error as soon as one is non-nil. The chain remains valid and
// resumable either way: a checkpoint captured by the hook, or taken from
// the model after RunWithHook returns, restores to exactly this state.
func (m *Model) RunWithHook(iterations int, hook SweepHook) error {
	for iter := 0; iter < iterations; iter++ {
		start := time.Now()
		m.sweep()
		m.IterationTimes = append(m.IterationTimes, time.Since(start))
		if m.opts.TraceLikelihood {
			m.LikelihoodTrace = append(m.LikelihoodTrace, m.LogLikelihood())
		}
		if m.opts.OnIteration != nil {
			m.opts.OnIteration(iter, m)
		}
		if hook != nil {
			if err := hook(m.sweepCount, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sweeps returns the number of sweeps the chain has completed, including
// sweeps restored from a checkpoint.
func (m *ChainRuntime) Sweeps() int { return m.sweepCount }

// updateLambdaPosteriors reweights each source topic's quadrature nodes by
// the posterior of its latent λ_t given the current counts: for node p with
// prior mass w_p and powered prior δ^{e_p},
//
//	log post_p ∝ log w_p + log Γ(Δ_p) − log Γ(Δ_p + n_t)
//	             + Σ_{w: n_wt>0} [log Γ(n_wt + δ_p,w) − log Γ(δ_p,w)]
//
// (the collapsed Dirichlet-multinomial likelihood of topic t's tokens under
// exponent e_p). Topics whose realized counts match the source keep weight
// on high-λ nodes; deviating topics shift weight to relaxed nodes.
func (m *ChainRuntime) updateLambdaPosteriors() {
	ds := m.delta
	P := ds.P
	if P < 2 {
		return
	}
	logPost := make([]float64, P)
	for s := 0; s < m.S; s++ {
		t := m.K + s
		base := s * P
		nt := float64(m.counts.topicTotal[t])
		for p := 0; p < P; p++ {
			lgTot, _ := math.Lgamma(ds.totals[base+p])
			lgDen, _ := math.Lgamma(ds.totals[base+p] + nt)
			logPost[p] = ds.priorLogW[p] + lgTot - lgDen
		}
		for w := 0; w < m.V; w++ {
			n := m.counts.wordTopic[w*m.T+t]
			if n == 0 {
				continue
			}
			vals := ds.values(s, w)
			for p := 0; p < P; p++ {
				lgN, _ := math.Lgamma(float64(n) + vals[p])
				lgP, _ := math.Lgamma(vals[p])
				logPost[p] += lgN - lgP
			}
		}
		// Softmax back to normalized weights.
		weights := ds.topicWeights(s)
		max := logPost[0]
		for _, lp := range logPost[1:] {
			if lp > max {
				max = lp
			}
		}
		var total float64
		for p, lp := range logPost {
			weights[p] = math.Exp(lp - max)
			total += weights[p]
		}
		if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
			for p := range weights {
				weights[p] = math.Exp(ds.priorLogW[p])
			}
			continue
		}
		for p := range weights {
			weights[p] /= total
		}
	}
}

// LambdaPosteriorMeans returns, per source topic, the posterior-weighted
// mean of the λ quadrature nodes — a diagnostic for how much each topic is
// estimated to deviate from its knowledge source (1 = conforming).
func (m *ChainRuntime) LambdaPosteriorMeans() []float64 {
	ds := m.delta
	out := make([]float64, m.S)
	for s := 0; s < m.S; s++ {
		var mean float64
		for p, w := range ds.topicWeights(s) {
			mean += w * ds.nodes[p]
		}
		out[s] = mean
	}
	return out
}

// sweep resamples every token once (Algorithm 1's SAMPLE over the corpus).
func (m *ChainRuntime) sweep() {
	o := &m.opts
	m.sweepCount++
	if m.seq.sparse != nil {
		// Pin the accumulated bucket totals to their canonical recomputation
		// at every sweep boundary, so a chain restored from a checkpoint cut
		// here (which rebuilds the totals fresh) continues bit-for-bit with
		// the uninterrupted run. O(K + S) — free next to the sweep.
		m.seq.sparse.resyncTotals()
	}
	if o.LambdaMode == LambdaIntegrated && !o.FreezeLambdaWeights && m.sweepCount > o.lambdaBurnIn() {
		m.updateLambdaPosteriors()
		// The λ weights feed the cached wInv denominators of the sequential
		// view; shard views rebuild their own at the next sweep barrier.
		m.seq.rebuildDenoms()
	}
	if o.PruneDeadTopics && m.sweepCount >= o.PruneAfter &&
		(m.sweepCount-o.PruneAfter)%o.PruneEvery == 0 {
		m.pruneDeadTopics()
	}
	if o.SweepMode == SweepShardedDocs {
		m.sweepSharded()
		return
	}
	m.sweepSequential()
}

// pruneDeadTopics disables source topics whose document frequency (counting
// documents with at least PruneMinTokens assigned tokens) falls below
// PruneMinDocs and resamples their tokens over the surviving topics — the
// in-inference elimination step of §III-C3. At least one topic always
// survives.
func (m *ChainRuntime) pruneDeadTopics() {
	o := &m.opts
	df := m.TopicDocumentFrequencies(o.PruneMinTokens)
	var newly []int
	enabled := 0
	for t := 0; t < m.T; t++ {
		if !m.disabled[t] {
			enabled++
		}
	}
	for s := 0; s < m.S; s++ {
		t := m.K + s
		if m.disabled[t] || df[t] >= o.PruneMinDocs {
			continue
		}
		if enabled <= 1 {
			break
		}
		m.disabled[t] = true
		enabled--
		newly = append(newly, t)
	}
	if len(newly) == 0 {
		return
	}
	dead := make([]bool, m.T)
	for _, t := range newly {
		dead[t] = true
		m.seq.refreshTopic(t) // zero the cached denominators
	}
	v := m.seq
	if v.sparse != nil && v.sparse.listsStale {
		// Multi-shard sweeps leave this view's nonzero lists stale at the
		// barrier; resampling draws through them, so refresh lazily here —
		// the one consumer — instead of paying the O(V·T) rescan every sweep.
		v.sparse.rebuildLists()
	}
	u := m.streams[0]
	for d := range m.c.Docs {
		zd := m.z[d]
		v.setDoc(zd)
		for i, w := range m.c.Docs[d].Words {
			if !dead[zd[i]] {
				continue
			}
			v.resample(zd, i, w, u)
		}
	}
}

// DisabledTopics returns a copy of the per-topic elimination flags.
func (m *ChainRuntime) DisabledTopics() []bool {
	out := make([]bool, m.T)
	copy(out, m.disabled)
	return out
}

// NumTopics returns T = K + S.
func (m *ChainRuntime) NumTopics() int { return m.T }

// NumFreeTopics returns K.
func (m *ChainRuntime) NumFreeTopics() int { return m.K }

// NumSourceTopics returns S.
func (m *ChainRuntime) NumSourceTopics() int { return m.S }

// SourceIndex maps a model topic index t in [K, T) to its knowledge-source
// article index; it returns -1 for free topics.
func (m *ChainRuntime) SourceIndex(t int) int {
	if t < m.K {
		return -1
	}
	return t - m.K
}

// Phi returns topic-word distributions: the symmetric-β estimate for free
// topics and the λ-quadrature estimate of Eq. 4 for source topics.
func (m *ChainRuntime) Phi() [][]float64 {
	beta := m.opts.Beta
	vBeta := float64(m.V) * beta
	cs := m.counts
	phi := make([][]float64, m.T)
	for t := 0; t < m.K; t++ {
		row := make([]float64, m.V)
		den := float64(cs.topicTotal[t]) + vBeta
		for w := 0; w < m.V; w++ {
			row[w] = (float64(cs.wordTopic[w*m.T+t]) + beta) / den
		}
		phi[t] = row
	}
	// A source topic gives one probability — its default-δ quadrature at
	// n_wt = 0 — to every word outside its article that it holds no tokens of,
	// which at superset scale is nearly all of V. Evaluate that once per
	// topic and the full quadrature only where it differs: the article's own
	// words here, the non-zero count cells in the row-major slab pass below.
	ds := m.delta
	nsum := make([]float64, m.S)
	for s := 0; s < m.S; s++ {
		t := m.K + s
		nsum[s] = float64(cs.topicTotal[t])
		row := make([]float64, m.V)
		def := ds.defaultProb(s, nsum[s])
		for w := range row {
			row[w] = def
		}
		for _, w := range ds.hyper[s].PresentWords() {
			row[w] = ds.wordProb(s, ds.values(s, w), float64(cs.wordTopic[w*m.T+t]), nsum[s])
		}
		phi[t] = row
	}
	for w := 0; w < m.V; w++ {
		for s, n := range cs.wordRow(w)[m.K:] {
			if n != 0 {
				phi[m.K+s][w] = ds.wordProb(s, ds.values(s, w), float64(n), nsum[s])
			}
		}
	}
	for _, row := range phi[m.K:] {
		// The quadrature mixture of normalized ratios is normalized up to
		// quadrature error; renormalize exactly.
		var total float64
		for _, p := range row {
			total += p
		}
		if total > 0 {
			inv := 1 / total
			for w := range row {
				row[w] *= inv
			}
		}
	}
	return phi
}

// Theta returns document-topic distributions per Eq. 1 with K := T topics.
func (m *ChainRuntime) Theta() [][]float64 {
	theta, _ := m.thetaAndDocFrequencies()
	return theta
}

// thetaAndDocFrequencies returns Theta and TopicDocumentFrequencies(1) from
// one pass over the assignments: the loop that normalizes each document's
// row already visits every topic's count.
func (m *ChainRuntime) thetaAndDocFrequencies() ([][]float64, []int) {
	alpha := m.opts.Alpha
	tAlpha := float64(m.T) * alpha
	theta := make([][]float64, m.D)
	df := make([]int, m.T)
	for d, zd := range m.z {
		row := make([]float64, m.T)
		for _, t := range zd {
			row[t]++
		}
		den := float64(len(zd)) + tAlpha
		for t, n := range row {
			if n > 0 {
				df[t]++
			}
			row[t] = (n + alpha) / den
		}
		theta[d] = row
	}
	return theta, df
}

// Assignments returns live per-token topic assignments ([doc][token]); do
// not mutate.
func (m *ChainRuntime) Assignments() [][]int { return m.z }

// Labels returns the T topic labels: "topic-<i>" for free topics, the
// knowledge-source label for source topics.
func (m *ChainRuntime) Labels() []string {
	labels := make([]string, m.T)
	for t := 0; t < m.K; t++ {
		labels[t] = freeTopicLabel(t)
	}
	for s := 0; s < m.S; s++ {
		labels[m.K+s] = m.src.Label(s)
	}
	return labels
}

// TopicDocumentFrequencies returns, per topic, the number of documents with
// at least minTokens tokens assigned to that topic — the statistic behind
// superset topic reduction (§III-C3).
func (m *ChainRuntime) TopicDocumentFrequencies(minTokens int) []int {
	if minTokens < 1 {
		minTokens = 1
	}
	df, n := make([]int, m.T), make([]int, m.T)
	for _, zd := range m.z {
		for _, t := range zd {
			n[t]++
		}
		// The first token of each topic reads its full count and clears it,
		// so n is all zero again for the next document.
		for _, t := range zd {
			if n[t] >= minTokens {
				df[t]++
			}
			n[t] = 0
		}
	}
	return df
}

// TokensPerTopic returns a copy of the per-topic token totals.
func (m *ChainRuntime) TokensPerTopic() []int {
	out := make([]int, m.T)
	for t, n := range m.counts.topicTotal {
		out[t] = int(n)
	}
	return out
}

// LogLikelihood returns the collapsed joint log P(w|z). Free topics use the
// Griffiths–Steyvers form with symmetric β; source topics use their δ^e
// prior evaluated at the quadrature's weighted-mean exponent (fixed mode:
// the fixed exponent). The trace is used for convergence monitoring (Fig. 6).
func (m *ChainRuntime) LogLikelihood() float64 {
	beta := m.opts.Beta
	vBeta := float64(m.V) * beta
	lgBeta, _ := math.Lgamma(beta)
	lgVBeta, _ := math.Lgamma(vBeta)
	cs := m.counts
	var ll float64
	for t := 0; t < m.K; t++ {
		ll += lgVBeta - float64(m.V)*lgBeta
		for w := 0; w < m.V; w++ {
			if n := cs.wordTopic[w*m.T+t]; n > 0 {
				lg, _ := math.Lgamma(float64(n) + beta)
				ll += lg - lgBeta
			}
		}
		lg, _ := math.Lgamma(float64(cs.topicTotal[t]) + vBeta)
		ll -= lg - lgVBeta
	}
	// For a topic with prior vector δ the collapsed term is
	//   log Γ(Σδ) − log Γ(n_t + Σδ) + Σ_{w: n_w>0} [log Γ(n_w+δ_w) − log Γ(δ_w)]
	// (words with n_w = 0 contribute log Γ(δ_w) to both prior and posterior
	// products and cancel). Source topics evaluate δ at the quadrature's
	// weighted-mean exponent (fixed mode: the fixed exponent).
	ds := m.delta
	for s := 0; s < m.S; s++ {
		t := m.K + s
		var e float64
		for p, wgt := range ds.topicWeights(s) {
			e += wgt * ds.exponents[s*ds.P+p]
		}
		pd := ds.hyper[s].Pow(e)
		lgTotal, _ := math.Lgamma(pd.Total)
		lgDen, _ := math.Lgamma(pd.Total + float64(cs.topicTotal[t]))
		ll += lgTotal - lgDen
		for w := 0; w < m.V; w++ {
			if n := cs.wordTopic[w*m.T+t]; n > 0 {
				dw := pd.Value(w)
				lgN, _ := math.Lgamma(float64(n) + dw)
				lgP, _ := math.Lgamma(dw)
				ll += lgN - lgP
			}
		}
	}
	return ll
}

func freeTopicLabel(t int) string { return "topic-" + strconv.Itoa(t) }
