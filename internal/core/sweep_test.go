package core

import (
	"math"
	"testing"

	"sourcelda/internal/rng"
	"sourcelda/internal/synth"
)

// sweepFixture builds a small synthetic corpus with enough documents to
// shard meaningfully.
func sweepFixture(t testing.TB) *synth.MedlineData {
	t.Helper()
	data, err := synth.MedlineLike(synth.MedlineOptions{
		NumTopics:  8,
		LiveTopics: 5,
		NumDocs:    24,
		AvgDocLen:  30,
		Alpha:      0.2,
		Mu:         0.7,
		Sigma:      0.3,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assignmentsEqual(t *testing.T, name string, got, want [][]int) {
	t.Helper()
	for d := range want {
		for i := range want[d] {
			if got[d][i] != want[d][i] {
				t.Fatalf("%s diverged from serial at doc %d token %d: got %d want %d",
					name, d, i, got[d][i], want[d][i])
			}
		}
	}
}

// TestSweepModeEquivalence pins the exactness contract across sweep modes and
// resource settings: with a fixed seed, the sequential sweep at any Threads
// and the sharded sweep mode restricted to one shard must all produce the
// identical chain.
func TestSweepModeEquivalence(t *testing.T) {
	data := sweepFixture(t)
	base := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, UseSmoothing: true,
		PruneDeadTopics: true, PruneAfter: 8, PruneEvery: 5,
		Iterations: 25, Seed: 4242,
	}
	ref, err := Fit(data.Corpus, data.Source, base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"sequential-threads", func(o *Options) { o.Threads = 3 }},
		{"sharded-one-shard", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 1 }},
		{"sharded-one-shard-threads", func(o *Options) {
			// Extra worker threads must not change a single-shard chain.
			o.SweepMode = SweepShardedDocs
			o.Shards = 1
			o.Threads = 4
		}},
	}
	for _, v := range variants {
		opts := base
		v.set(&opts)
		m, err := Fit(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, v.name, m.Assignments(), ref.Assignments())
		m.Close()
	}
}

// TestShardedSweepDeterministic checks the multi-shard chain is a pure
// function of (seed, shard count): rerunning reproduces it bit for bit even
// though shards race on wall-clock, because each shard owns a fixed
// document range and RNG stream.
func TestShardedSweepDeterministic(t *testing.T) {
	data := sweepFixture(t)
	opts := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, Iterations: 15, Seed: 77,
		SweepMode: SweepShardedDocs, Shards: 4, Threads: 4,
	}
	m1, err := Fit(data.Corpus, data.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := Fit(data.Corpus, data.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	assignmentsEqual(t, "second run", m2.Assignments(), m1.Assignments())
}

// TestShardedSweepCountsConsistent verifies the shard-barrier
// reconciliation: after multi-shard sweeps the global count store must
// agree exactly with the per-token assignments, and distributions must stay
// normalized.
func TestShardedSweepCountsConsistent(t *testing.T) {
	data := sweepFixture(t)
	m, err := Fit(data.Corpus, data.Source, Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaFixed, Lambda: 0.8,
		Iterations: 12, Seed: 9,
		SweepMode: SweepShardedDocs, Shards: 5, Threads: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	wantWord := make([]int32, m.V*m.T)
	wantTotal := make([]int32, m.T)
	for d, doc := range data.Corpus.Docs {
		for i, w := range doc.Words {
			k := m.z[d][i]
			wantWord[w*m.T+k]++
			wantTotal[k]++
			if k < 0 || k >= m.T {
				t.Fatalf("assignment out of range: %d", k)
			}
		}
	}
	for i, n := range wantWord {
		if m.counts.wordTopic[i] != n {
			t.Fatalf("wordTopic[%d] = %d, want %d", i, m.counts.wordTopic[i], n)
		}
	}
	for t2, n := range wantTotal {
		if m.counts.topicTotal[t2] != n {
			t.Fatalf("topicTotal[%d] = %d, want %d", t2, m.counts.topicTotal[t2], n)
		}
	}

	var tokens int
	for _, n := range m.TokensPerTopic() {
		tokens += n
	}
	if tokens != data.Corpus.TotalTokens() {
		t.Fatalf("token total %d, want %d", tokens, data.Corpus.TotalTokens())
	}
	for k, row := range m.Phi() {
		var s float64
		for _, p := range row {
			s += p
		}
		if s < 0.999999 || s > 1.000001 {
			t.Fatalf("φ[%d] sums to %v after sharded sweeps", k, s)
		}
	}
}

// TestShardedSweepImprovesLikelihood sanity-checks that the approximate
// multi-shard chain still optimizes the collapsed joint likelihood on a
// corpus drawn from the source topics.
func TestShardedSweepImprovesLikelihood(t *testing.T) {
	data := sweepFixture(t)
	m, err := Fit(data.Corpus, data.Source, Options{
		NumFreeTopics: 2, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaFixed, Lambda: 1,
		Iterations: 30, Seed: 5,
		SweepMode: SweepShardedDocs, Shards: 4, Threads: 2,
		TraceLikelihood: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	trace := m.LikelihoodTrace
	if len(trace) != 30 {
		t.Fatalf("trace length %d", len(trace))
	}
	if last, first := trace[len(trace)-1], trace[0]; last < first-1e-9 {
		t.Fatalf("sharded chain degraded the likelihood: %v → %v", first, last)
	}
}

// TestShardsCappedAtDocuments: more shards than documents must degrade
// gracefully to one shard per document.
func TestShardsCappedAtDocuments(t *testing.T) {
	data := sweepFixture(t)
	m, err := Fit(data.Corpus, data.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Iterations: 3, Seed: 2,
		SweepMode: SweepShardedDocs, Shards: 10 * data.Corpus.NumDocs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.shards) != data.Corpus.NumDocs() {
		t.Fatalf("%d shards for %d documents", len(m.shards), data.Corpus.NumDocs())
	}
	var tokens int
	for _, n := range m.TokensPerTopic() {
		tokens += n
	}
	if tokens != data.Corpus.TotalTokens() {
		t.Fatalf("token total %d, want %d", tokens, data.Corpus.TotalTokens())
	}
}

// TestSequentialChainStartsNoPool: Threads bounds shard workers only, so a
// sequential chain — whatever Threads says — owns no pool and no goroutines.
func TestSequentialChainStartsNoPool(t *testing.T) {
	data := sweepFixture(t)
	m, err := NewModel(data.Corpus, data.Source, Options{
		LambdaMode: LambdaFixed, Lambda: 1, Seed: 2, Threads: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.pool != nil {
		t.Fatalf("sequential chain built a %d-worker pool", m.pool.Workers())
	}
}

func TestSweepModeStringer(t *testing.T) {
	if SweepSequential.String() != "sequential" || SweepShardedDocs.String() != "sharded-docs" {
		t.Fatal("SweepMode strings wrong")
	}
	if SweepMode(9).String() == "" {
		t.Fatal("unknown enum value should still render")
	}
}

// fillReference is the collapsed conditional exactly as gibbsView.fill
// evaluated it before the default-δ mass was cached per topic: the full
// P-term quadrature for every source topic, supported or not, with each node
// weight divided by its denominator on the spot rather than read from wInv.
// It is the oracle fill must match bit for bit — which also catches a wInv or
// defMass entry left stale by a missed refreshTopic.
func fillReference(v *gibbsView, out []float64) {
	m, ds, P := v.m, v.m.delta, v.P
	for t := range out {
		docPart := float64(v.docRow[t]) + v.alpha
		nw := float64(v.tokenRow[t])
		tot := float64(v.topicTotal[t])
		if t < v.K {
			den := 0.0
			if !m.disabled[t] {
				den = 1 / (tot + v.vBeta)
			}
			out[t] = (nw + v.beta) * den * docPart
			continue
		}
		s := t - v.K
		vals := ds.values(s, v.curWord)
		var acc float64
		for p := 0; p < P; p++ {
			wi := 0.0
			if !m.disabled[t] {
				wi = ds.weights[s*P+p] / (tot + ds.totals[s*P+p])
			}
			acc += (nw + vals[p]) * wi
		}
		out[t] = acc * docPart
	}
}

// phiReference is Phi() as it stood before the per-topic default
// probability: values + wordProb for every (topic, word) cell.
func phiReference(m *ChainRuntime) [][]float64 {
	phi := make([][]float64, m.T)
	vBeta := float64(m.V) * m.opts.Beta
	for t := 0; t < m.T; t++ {
		row := make([]float64, m.V)
		nsum := float64(m.counts.topicTotal[t])
		for w := range row {
			n := float64(m.counts.wordTopic[w*m.T+t])
			if t < m.K {
				row[w] = (n + m.opts.Beta) / (nsum + vBeta)
			} else {
				row[w] = m.delta.wordProb(t-m.K, m.delta.values(t-m.K, w), n, nsum)
			}
		}
		if t >= m.K {
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
		phi[t] = row
	}
	return phi
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkOracles compares fill against fillReference for every token of
// documents [lo, hi) seen through view v with the token removed (the state
// the kernels sample in), then Phi against phiReference.
func checkOracles(t *testing.T, name string, m *ChainRuntime, v *gibbsView, lo, hi int) {
	t.Helper()
	got, want := make([]float64, m.T), make([]float64, m.T)
	for d := lo; d < hi; d++ {
		v.setDoc(m.counts.docRow(d))
		for i, w := range m.c.Docs[d].Words {
			v.setToken(w)
			v.dec(m.z[d][i])
			fillReference(v, want)
			v.fill(got)
			bitsEqual(t, name+": fill", got, want)
			v.inc(m.z[d][i])
		}
	}
	ref := phiReference(m)
	for k, row := range m.Phi() {
		bitsEqual(t, name+": Phi row", row, ref[k])
	}
}

func oracleOptions() Options {
	return Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, UseSmoothing: true, LambdaBurnIn: 3,
		PruneDeadTopics: true, PruneAfter: 4, PruneEvery: 3, PruneMinDocs: 8,
		Seed: 4242,
	}
}

// TestFillOracle drives randomized chains through every state that touches
// the cached default mass — pruning, λ posterior reweighting, a fixed λ
// (P == 1), no free topics, shard-private slabs, an external-counts overlay
// and AppendDocs — and requires fill and Phi to reproduce the uncached
// evaluation to the bit in each.
func TestFillOracle(t *testing.T) {
	data := sweepFixture(t)
	r := rng.New(5)
	for _, c := range []struct {
		name string
		set  func(*Options)
	}{
		{"integrated", func(o *Options) {}},
		{"fixed-lambda", func(o *Options) { o.LambdaMode = LambdaFixed; o.Lambda = 0.8 }},
		{"no-free-topics", func(o *Options) { o.NumFreeTopics = 0 }},
		{"sharded-3", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 3; o.Threads = 3 }},
	} {
		for seed := int64(0); seed < 3; seed++ {
			opts := oracleOptions()
			opts.Seed += seed
			c.set(&opts)
			m, _ := appendChain(t, data, opts)
			checkOracles(t, c.name+" at init", &m.ChainRuntime, m.seq, 0, m.D)
			m.Run(8)
			if c.name == "integrated" {
				pruned := false
				for _, off := range m.disabled {
					pruned = pruned || off
				}
				if !pruned {
					t.Fatalf("seed %d: fixture pruned nothing; the disabled branch is not exercised", opts.Seed)
				}
			}
			checkOracles(t, c.name+" after sweeps", &m.ChainRuntime, m.seq, 0, m.D)
			for _, sh := range m.shards {
				// Shard views sample against private slabs left at their own
				// end-of-sweep state.
				checkOracles(t, c.name+" shard view", &m.ChainRuntime, sh.view, sh.lo, sh.hi)
			}

			// Overlay: pretend other workers hold a few tokens of every word.
			global := m.OwnWordTopicCounts()
			for i := range global {
				if r.Intn(7) == 0 {
					global[i] += int32(1 + r.Intn(3))
				}
			}
			if err := m.SetGlobalCounts(global); err != nil {
				t.Fatal(err)
			}
			checkOracles(t, c.name+" under overlay", &m.ChainRuntime, m.seq, 0, m.D)
			m.Run(2)
			checkOracles(t, c.name+" swept under overlay", &m.ChainRuntime, m.seq, 0, m.D)

			if err := m.AppendDocs(streamedDocs(m.V, 3, 17), 2); err != nil {
				t.Fatal(err)
			}
			checkOracles(t, c.name+" after append", &m.ChainRuntime, m.seq, 0, m.D)
			m.Run(2)
			checkOracles(t, c.name+" swept after append", &m.ChainRuntime, m.seq, 0, m.D)
			m.Close()
		}
	}
}

// TestInitPriorOracle checks the initial-assignment distribution — one
// shared prior vector patched at the word's supporting topics — against the
// per-topic evaluation initAssignments used to run for every token.
func TestInitPriorOracle(t *testing.T) {
	data := sweepFixture(t)
	for _, set := range []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.LambdaMode = LambdaFixed; o.Lambda = 0.8 },
		func(o *Options) { o.NumFreeTopics = 0 },
	} {
		opts := oracleOptions()
		set(&opts)
		m, err := NewModel(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		prior, supProb := m.initPrior(), m.initSupportProbs()
		got, want := make([]float64, m.T), make([]float64, m.T)
		for w := 0; w < m.V; w++ {
			for k := 0; k < m.K; k++ {
				want[k] = opts.Beta / (float64(m.V) * opts.Beta)
			}
			for s := 0; s < m.S; s++ {
				want[m.K+s] = m.delta.wordProb(s, m.delta.values(s, w), 0, 0)
			}
			m.initWordProbs(prior, supProb, w, got)
			bitsEqual(t, "initial distribution", got, want)
		}
		m.Close()
	}
}
