package core

import (
	"math"
	"slices"
	"testing"

	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/mathx"
	"sourcelda/internal/oracle"
	"sourcelda/internal/rng"
	"sourcelda/internal/textproc"
)

// The training-chain oracle. Eqs. 2–3 define the collapsed Gibbs chain by its
// per-token conditionals: a free topic weighs (n_wt+β)/(n_t+Vβ)·(n_dt+α), a
// source topic (n_dt+α)·Σ_p π_p (n_wt+δ_w^{e_p})/(n_t+Σ_v δ_v^{e_p}) with λ
// integrated by the chain's P quadrature nodes. On a corpus of N tokens and
// T topics the chain has T^N states, so its transition operator — one sweep
// in corpus order, token by token — can be applied exactly to a distribution
// over all of them. Iterated to its fixed point it gives the law the chain's
// sweep-boundary states converge to, and from it each token's exact marginal
// P(z_i = t). With a fixed λ (P = 1) the conditionals are those of the
// Dirichlet-multinomial joint, and the fixed point must equal p(z | w)
// enumerated from that joint, which checks the operator itself. With P > 1,
// Eq. 3 mixes the nodes per token, which is not the conditional of any one
// joint, so the operator's fixed point is the target and the λ-mixture
// joint is only reported beside it.

// oracleMutation selects a deliberately broken test-local kernel.
type oracleMutation int

const (
	oracleExact oracleMutation = iota
	// Dense-kernel mutations.
	mutNoDecrement // the current token stays in the counts it is drawn from
	mutSkipNode    // quadrature node P−1 is left out of every source topic
	mutNoBeta      // the free-topic denominator is n_t + V instead of n_t + Vβ
	// Sparse-kernel mutation.
	mutNoSupportCorrection // the default-δ bucket treats every source topic as unsupported
)

// oracleCorpus is 8 tokens over 4 words in two documents, under two source
// topics whose articles overlap on word 1 and one free topic. Word 3 is in no
// article, so only the free topic and the default-δ rows can explain it.
func oracleCorpus() (*corpus.Corpus, *knowledge.Source) {
	vocab := textproc.NewVocabulary()
	for _, w := range []string{"a", "b", "c", "d"} {
		vocab.Add(w)
	}
	c := corpus.NewWithVocab(vocab)
	c.AddDocument(&corpus.Document{Words: []int{0, 1, 3, 0}})
	c.AddDocument(&corpus.Document{Words: []int{2, 1, 3, 2}})
	src, err := knowledge.NewSource([]*knowledge.Article{
		knowledge.NewArticle("s0", []int{0, 0, 0, 1}),
		knowledge.NewArticle("s1", []int{1, 2, 2, 2}),
	})
	if err != nil {
		panic(err)
	}
	return c, src
}

// chainOracleOptions is the chain the oracle checks: P = 3 nodes under g(λ)
// smoothing, and frozen λ weights, so every sweep samples the same Eq. 3
// conditional (posterior reweighting would move the target between sweeps).
func chainOracleOptions(seed int64) Options {
	return Options{
		NumFreeTopics: 1, Alpha: 0.5, Beta: 0.1,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3, QuadraturePoints: 3,
		UseSmoothing: true, FreezeLambdaWeights: true,
		Seed: seed,
	}
}

// oracleTarget holds the chain's parameters, recomputed from the knowledge
// source rather than read from the δ store: δ_w = n_w + ε raised to each
// node's exponent, and the nodes' prior weights.
type oracleTarget struct {
	K, T, V, P  int
	alpha, beta float64
	words, docs []int       // per token, in sweep order
	delta       [][]float64 // [s][w*P+p] = δ_w^{e_p}
	total       [][]float64 // [s][p] = Σ_v δ_v^{e_p}
	weight      []float64   // [p] prior node weights
}

func newOracleTarget(t testing.TB, c *corpus.Corpus, src *knowledge.Source, opts Options) *oracleTarget {
	t.Helper()
	m, err := NewModel(c, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	o := m.opts
	_, weights := quadratureNodes(o.Mu, o.Sigma, o.QuadraturePoints)
	if o.LambdaMode == LambdaFixed {
		weights = []float64{1}
	}
	ot := &oracleTarget{K: m.K, T: m.T, V: m.V, P: m.delta.P, alpha: o.Alpha, beta: o.Beta, weight: weights}
	for d, doc := range c.Docs {
		for _, w := range doc.Words {
			ot.words = append(ot.words, w)
			ot.docs = append(ot.docs, d)
		}
	}
	for s := 0; s < m.S; s++ {
		dense := src.Article(s).Hyperparams(m.V, o.Epsilon).Dense()
		vals := make([]float64, m.V*ot.P)
		tot := make([]float64, ot.P)
		for p := 0; p < ot.P; p++ {
			e := m.delta.exponents[s*ot.P+p]
			for w, x := range dense {
				vals[w*ot.P+p] = math.Pow(x, e)
				tot[p] += vals[w*ot.P+p]
			}
		}
		ot.delta = append(ot.delta, vals)
		ot.total = append(ot.total, tot)
	}
	return ot
}

// counts returns the word-topic, doc-topic and topic totals of assignment z,
// leaving out token skip (skip < 0 keeps every token).
func (ot *oracleTarget) counts(z []int, skip int) (nwt, ndt [][]float64, nt []float64) {
	nwt = make([][]float64, ot.V)
	for w := range nwt {
		nwt[w] = make([]float64, ot.T)
	}
	ndt = make([][]float64, ot.docs[len(ot.docs)-1]+1)
	for d := range ndt {
		ndt[d] = make([]float64, ot.T)
	}
	nt = make([]float64, ot.T)
	for i, t := range z {
		if i == skip {
			continue
		}
		nwt[ot.words[i]][t]++
		ndt[ot.docs[i]][t]++
		nt[t]++
	}
	return nwt, ndt, nt
}

// conditional writes Eq. 2/3's normalized P(z_i = t | z_−i, w) into out.
func (ot *oracleTarget) conditional(z []int, i int, out []float64) {
	nwt, ndt, nt := ot.counts(z, i)
	w, d := ot.words[i], ot.docs[i]
	var sum float64
	for t := range out {
		out[t] = ot.wordLik(w, t, nwt[w][t], nt[t]) * (ndt[d][t] + ot.alpha)
		sum += out[t]
	}
	for t := range out {
		out[t] /= sum
	}
}

// wordLik is Eq. 2/3's word factor of topic t for word w, given the topic's
// count nw of w and its total n: (nw+β)/(n+Vβ) for a free topic, and
// Σ_p π_p (nw+δ_w^{e_p})/(n+Σ_v δ_v^{e_p}) for a source topic.
func (ot *oracleTarget) wordLik(w, t int, nw, n float64) float64 {
	if t < ot.K {
		return (nw + ot.beta) / (n + float64(ot.V)*ot.beta)
	}
	s := t - ot.K
	var p float64
	for q, pi := range ot.weight {
		p += pi * (nw + ot.delta[s][w*ot.P+q]) / (n + ot.total[s][q])
	}
	return p
}

// joint returns the per-token marginals of p(z | w) enumerated from the
// collapsed joint, each source topic's word likelihood mixed over the nodes:
// Π_d DM(n_d·; α) · Π_free DM(n_·t; β) · Π_s Σ_p π_p DM(n_·s; δ^{e_p}).
func (ot *oracleTarget) joint() []float64 {
	lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	return oracle.Posterior(len(ot.words), ot.T, func(z []int) float64 {
		nwt, ndt, nt := ot.counts(z, -1)
		var l float64
		for _, row := range ndt {
			for _, n := range row {
				l += lg(n+ot.alpha) - lg(ot.alpha)
			}
		}
		for t := 0; t < ot.T; t++ {
			if t < ot.K {
				vb := float64(ot.V) * ot.beta
				l += lg(vb) - lg(nt[t]+vb)
				for w := 0; w < ot.V; w++ {
					l += lg(nwt[w][t]+ot.beta) - lg(ot.beta)
				}
				continue
			}
			s := t - ot.K
			var mix float64
			for q, pi := range ot.weight {
				tot := ot.total[s][q]
				lq := lg(tot) - lg(nt[t]+tot)
				for w := 0; w < ot.V; w++ {
					d := ot.delta[s][w*ot.P+q]
					lq += lg(nwt[w][t]+d) - lg(d)
				}
				mix += pi * math.Exp(lq)
			}
			l += math.Log(mix)
		}
		return l
	})
}

// refChain is a test-local copy of the chain's two kernels, written out
// plainly: counts in fresh slices, the dense conditional filled per token,
// the sparse buckets walked from lists rederived from the counts. Only the
// values the kernels cache between tokens — the reciprocal denominators and
// the sparse kernel's running bucket totals — are kept and updated the way
// the chain updates them, because the draws depend on their exact bits.
// Unbroken, it consumes the chain's stream and reproduces its assignments
// bit for bit, so its mutations are mutations of the kernels the chain runs.
type refChain struct {
	m      *Model
	sparse bool
	mut    oracleMutation
	r      *rng.RNG

	z          [][]int
	wordTopic  []int32 // [w*T+t]
	docTopic   [][]int32
	topicTotal []int32

	freeDen, wInv, defMass, srcW []float64
	freeSmooth, srcSmooth        float64
}

// newRefChain starts from m's initial assignments (m must not have swept).
func newRefChain(m *Model, sparse bool, mut oracleMutation) *refChain {
	rc := &refChain{
		m: m, sparse: sparse, mut: mut,
		r:          rng.NewStream(m.opts.Seed, 0),
		wordTopic:  make([]int32, m.V*m.T),
		topicTotal: make([]int32, m.T),
		freeDen:    make([]float64, m.K),
		wInv:       make([]float64, m.S*m.delta.P),
		defMass:    make([]float64, m.S),
		srcW:       make([]float64, m.S),
	}
	for d, zd := range m.z {
		rc.z = append(rc.z, slices.Clone(zd))
		rc.docTopic = append(rc.docTopic, make([]int32, m.T))
		for i, t := range zd {
			rc.wordTopic[m.c.Docs[d].Words[i]*m.T+t]++
			rc.docTopic[d][t]++
			rc.topicTotal[t]++
		}
	}
	for t := 0; t < m.T; t++ {
		rc.refresh(t)
	}
	return rc
}

// refresh recomputes topic t's cached denominators after its total changed
// and moves the running bucket totals by the change.
func (rc *refChain) refresh(t int) {
	m, ds := rc.m, rc.m.delta
	alpha, beta := m.opts.Alpha, m.opts.Beta
	if t < m.K {
		vBeta := float64(m.V) * beta
		if rc.mut == mutNoBeta {
			vBeta = float64(m.V)
		}
		den := 1 / (float64(rc.topicTotal[t]) + vBeta)
		rc.freeSmooth += alpha * beta * (den - rc.freeDen[t])
		rc.freeDen[t] = den
		return
	}
	s, P := t-m.K, ds.P
	wi := rc.wInv[s*P : (s+1)*P]
	var dm, sw float64
	for p := range wi {
		wi[p] = ds.weights[s*P+p] / (float64(rc.topicTotal[t]) + ds.totals[s*P+p])
		if rc.mut == mutSkipNode && p == P-1 {
			wi[p] = 0
		}
		dm += ds.defaults[s*P+p] * wi[p]
		sw += wi[p]
	}
	rc.srcSmooth += alpha * (dm - rc.defMass[s])
	rc.defMass[s], rc.srcW[s] = dm, sw
}

// move adds delta to token (d, w)'s counts in topic t.
func (rc *refChain) move(d, w, t int, delta int32) {
	rc.wordTopic[w*rc.m.T+t] += delta
	rc.docTopic[d][t] += delta
	rc.topicTotal[t] += delta
	rc.refresh(t)
}

// sweep resamples every token once, in corpus order.
func (rc *refChain) sweep() {
	m := rc.m
	alpha, beta := m.opts.Alpha, m.opts.Beta
	// The chain pins its running totals to a fresh sum at every sweep.
	var fs, ss float64
	for _, x := range rc.freeDen {
		fs += x
	}
	for _, x := range rc.defMass {
		ss += x
	}
	rc.freeSmooth, rc.srcSmooth = alpha*beta*fs, alpha*ss
	for d, doc := range m.c.Docs {
		for i, w := range doc.Words {
			old := rc.z[d][i]
			if rc.mut != mutNoDecrement {
				rc.move(d, w, old, -1)
			}
			var t int
			if rc.sparse {
				t = rc.drawSparse(d, w, rc.r.Float64())
			} else {
				t = rc.drawDense(d, w, rc.r.Float64())
			}
			if rc.mut == mutNoDecrement {
				rc.move(d, w, old, -1)
			}
			rc.z[d][i] = t
			rc.move(d, w, t, 1)
		}
	}
}

// drawDense is Algorithm 1's draw: the conditional of every topic, running
// sums, and a search for u·total.
func (rc *refChain) drawDense(d, w int, u float64) int {
	m, ds := rc.m, rc.m.delta
	alpha, beta, P := m.opts.Alpha, m.opts.Beta, ds.P
	cum := make([]float64, m.T)
	for t := range cum {
		nw, nd := float64(rc.wordTopic[w*m.T+t]), float64(rc.docTopic[d][t])
		if t < m.K {
			cum[t] = (nw + beta) * rc.freeDen[t] * (nd + alpha)
			continue
		}
		s := t - m.K
		vals := ds.values(s, w)
		var acc float64
		for p := 0; p < P; p++ {
			acc += (nw + vals[p]) * rc.wInv[s*P+p]
		}
		cum[t] = acc * (nd + alpha)
	}
	mathx.PrefixSums(cum)
	return searchTarget(cum, u)
}

// drawSparse is the SparseLDA bucket draw: word bucket, document bucket,
// default-δ bucket, smoothing bucket, walked in that order against u·total.
func (rc *refChain) drawSparse(d, w int, u float64) int {
	m, ds := rc.m, rc.m.delta
	alpha, beta, P, K := m.opts.Alpha, m.opts.Beta, ds.P, m.K
	sup, base := ds.wordEntries(w)
	supV := func(s int) (float64, bool) {
		for i, st := range sup {
			if int(st) == s {
				var acc float64
				for p := 0; p < P; p++ {
					acc += rc.wInv[s*P+p] * ds.vals[(base+i)*P+p]
				}
				return acc, true
			}
		}
		return rc.defMass[s], false
	}
	var corr float64
	for _, s := range sup {
		v, _ := supV(int(s))
		corr += v - rc.defMass[s]
	}
	if rc.mut == mutNoSupportCorrection {
		corr = 0
	}
	var items []int
	var masses []float64
	var sparseTotal float64
	for t := 0; t < m.T; t++ {
		nw, nd := float64(rc.wordTopic[w*m.T+t]), float64(rc.docTopic[d][t])
		if nw == 0 {
			continue
		}
		var mass float64
		if t < K {
			mass = nw * (nd + alpha) * rc.freeDen[t]
		} else {
			mass = nw * rc.srcW[t-K] * (nd + alpha)
		}
		items, masses = append(items, t), append(masses, mass)
		sparseTotal += mass
	}
	for t := 0; t < m.T; t++ {
		nd := float64(rc.docTopic[d][t])
		if nd == 0 {
			continue
		}
		var mass float64
		if t < K {
			mass = beta * nd * rc.freeDen[t]
		} else {
			v, _ := supV(t - K)
			mass = nd * v
		}
		items, masses = append(items, t), append(masses, mass)
		sparseTotal += mass
	}
	total := sparseTotal + (rc.srcSmooth + alpha*corr) + rc.freeSmooth
	target := u * total
	last := -1
	for i, mass := range masses {
		if mass > 0 {
			last = items[i]
			if target -= mass; target < 0 {
				return last
			}
		}
	}
	for s := 0; s < m.S; s++ {
		v, _ := supV(s)
		if mass := alpha * v; mass > 0 {
			last = K + s
			if target -= mass; target < 0 {
				return last
			}
		}
	}
	for t := 0; t < K; t++ {
		if mass := alpha * beta * rc.freeDen[t]; mass > 0 {
			last = t
			if target -= mass; target < 0 {
				return last
			}
		}
	}
	return last
}

// markSample adds one sample of assignment z to acc (flattened i*T + t).
func markSample(acc []float64, z [][]int, T int) {
	i := 0
	for _, zd := range z {
		for _, t := range zd {
			acc[i*T+t]++
			i++
		}
	}
}

// TestOracleOperatorMatchesJoint: with a fixed λ the conditionals are the
// Dirichlet-multinomial joint's, so the exact operator's fixed point must be
// p(z | w) enumerated from that joint. With P = 3 the gap between Eq. 3's
// per-token quadrature and the λ-mixture joint is reported, not asserted.
func TestOracleOperatorMatchesJoint(t *testing.T) {
	c, src := oracleCorpus()
	fixed := chainOracleOptions(1)
	fixed.LambdaMode, fixed.Lambda = LambdaFixed, 0.8
	ot := newOracleTarget(t, c, src, fixed)
	got, want := oracle.Stationary(t, len(ot.words), ot.T, ot.conditional), ot.joint()
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("fixed λ: operator marginal %d is %v, enumerated joint %v", k, got[k], want[k])
		}
	}
	ot = newOracleTarget(t, c, src, chainOracleOptions(1))
	var gap float64
	target := oracle.Stationary(t, len(ot.words), ot.T, ot.conditional)
	for k, v := range ot.joint() {
		gap = math.Max(gap, math.Abs(v-target[k]))
	}
	t.Logf("P=3: largest marginal gap between the chain's target and the λ-mixture joint: %.4f", gap)
}

// TestTrainingChainOracle checks the training chain against the exact law of
// its sweeps: averaged over seeded chains, the serial, sparse and one-shard
// kernels' per-token marginals must match the operator's fixed point within
// 5 standard errors, and broken copies of the kernels must miss it. Two
// shards and AppendDocs target the law only approximately; their bias is
// reported, not asserted.
func TestTrainingChainOracle(t *testing.T) {
	c, src := oracleCorpus()
	ot := newOracleTarget(t, c, src, chainOracleOptions(1))
	want := oracle.Stationary(t, len(ot.words), ot.T, ot.conditional)
	T := ot.T

	// The unbroken copies reproduce the chain's bits; that is what makes
	// their mutations mutations of the chain's kernels.
	for _, kind := range []SamplerKind{SamplerSerial, SamplerSparse} {
		for seed := int64(1); seed <= 10; seed++ {
			o := chainOracleOptions(seed)
			o.Sampler = kind
			m, err := NewModel(c, src, o)
			if err != nil {
				t.Fatal(err)
			}
			rc := newRefChain(m, kind == SamplerSparse, oracleExact)
			for sweep := 1; sweep <= 30; sweep++ {
				m.Run(1)
				rc.sweep()
				if !slices.EqualFunc(m.z, rc.z, slices.Equal) {
					t.Fatalf("%s seed %d sweep %d: the test-local kernel diverges from the chain", kind, seed, sweep)
				}
			}
			m.Close()
		}
	}
	if testing.Short() || raceEnabled {
		t.Skip("long chains skipped under -short and -race")
	}

	const seeds, burnIn, samples = 300, 20, 600
	// average sweeps burnIn times, then marks z after each of samples
	// sweeps and returns the per-token topic frequencies.
	average := func(sweep func(), z func() [][]int) []float64 {
		for i := 0; i < burnIn; i++ {
			sweep()
		}
		acc := make([]float64, len(want))
		for i := 0; i < samples; i++ {
			sweep()
			markSample(acc, z(), T)
		}
		for k := range acc {
			acc[k] /= samples
		}
		return acc
	}
	chain := func(set func(*Options)) func(seed int64) []float64 {
		return func(seed int64) []float64 {
			o := chainOracleOptions(seed)
			set(&o)
			m, err := NewModel(c, src, o)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			return average(func() { m.Run(1) }, func() [][]int { return m.z })
		}
	}
	oracle.MustHit(t, "serial chain", want, seeds, chain(func(o *Options) {}))
	oracle.MustHit(t, "sparse chain", want, seeds, chain(func(o *Options) { o.Sampler = SamplerSparse }))
	oracle.MustHit(t, "sharded-1 chain", want, seeds, chain(func(o *Options) { o.SweepMode, o.Shards = SweepShardedDocs, 1 }))

	broken := func(sparse bool, mut oracleMutation) func(seed int64) []float64 {
		return func(seed int64) []float64 {
			m, err := NewModel(c, src, chainOracleOptions(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			rc := newRefChain(m, sparse, mut)
			return average(rc.sweep, func() [][]int { return rc.z })
		}
	}
	oracle.MustMiss(t, want, seeds, []oracle.Mutation{
		{Name: "no-decrement", Sample: broken(false, mutNoDecrement)},
		{Name: "skip-node", Sample: broken(false, mutSkipNode)},
		{Name: "no-beta-denominator", Sample: broken(false, mutNoBeta)},
		{Name: "no-support-correction", Sample: broken(true, mutNoSupportCorrection)},
	})

	z, bias := oracle.Z(want, seeds, chain(func(o *Options) { o.SweepMode, o.Shards = SweepShardedDocs, 2 }))
	t.Logf("sharded-2 (approximate): %.1f standard errors, largest marginal bias %.4f", z, bias)

	// AppendDocs: a chain over the first document, burnt in, folds the
	// second in; one sample per seed is the state right after the append.
	appended := func(seed int64) []float64 {
		first, _ := oracleCorpus()
		second := first.Docs[1]
		first.Docs = first.Docs[:1]
		m, err := NewModel(first, src, chainOracleOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.Run(burnIn)
		if err := m.AppendDocs([]*corpus.Document{second}, 10); err != nil {
			t.Fatal(err)
		}
		acc := make([]float64, len(want))
		markSample(acc, m.z, T)
		return acc
	}
	z, bias = oracle.Z(want, 10*seeds, appended)
	t.Logf("AppendDocs after burn-in (approximate): %.1f standard errors, largest marginal bias %.4f", z, bias)
}
