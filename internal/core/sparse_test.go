package core

import (
	"math"
	"testing"

	"sourcelda/internal/rng"
	"sourcelda/internal/synth"
)

// sparseConfigs is the model matrix the sparse-vs-dense property tests run
// over: free topics present and absent, fixed and integrated λ, smoothing on
// and off, pruning active, and both sweep modes.
func sparseConfigs() []struct {
	name string
	set  func(*Options)
} {
	return []struct {
		name string
		set  func(*Options)
	}{
		{"integrated", func(o *Options) {}},
		{"no-free-topics", func(o *Options) { o.NumFreeTopics = 0 }},
		{"fixed-lambda", func(o *Options) { o.LambdaMode = LambdaFixed; o.Lambda = 0.8 }},
		{"smoothing", func(o *Options) { o.UseSmoothing = true }},
		{"pruning", func(o *Options) {
			o.PruneDeadTopics = true
			o.PruneAfter = 4
			o.PruneEvery = 3
			o.PruneMinDocs = 3
		}},
		{"sharded", func(o *Options) {
			o.SweepMode = SweepShardedDocs
			o.Shards = 4
			o.Threads = 2
		}},
		{"sharded-pruning", func(o *Options) {
			o.SweepMode = SweepShardedDocs
			o.Shards = 3
			o.PruneDeadTopics = true
			o.PruneAfter = 4
			o.PruneEvery = 3
			o.PruneMinDocs = 3
		}},
	}
}

func sparseBaseOptions(seed int64) Options {
	return Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, Iterations: 10, Seed: seed,
		Sampler: SamplerSparse,
	}
}

// checkViewAgainstDense asserts, for every token of documents [lo, hi), that
// the sparse bucket reconstruction matches the dense conditional within tol,
// and that the incrementally-maintained bucket totals match recomputation.
func checkViewAgainstDense(t *testing.T, name string, m *Model, v *gibbsView, lo, hi int, tol float64) {
	t.Helper()
	dense := make([]float64, m.T)
	sparse := make([]float64, m.T)
	checked := 0
	for d := lo; d < hi; d++ {
		v.setDoc(m.counts.docRow(d))
		zd := m.z[d]
		for i, w := range m.c.Docs[d].Words {
			v.setToken(w)
			v.dec(zd[i])
			v.fill(dense)
			v.sparse.fillFromBuckets(sparse)
			for k := 0; k < m.T; k++ {
				if diff := math.Abs(dense[k] - sparse[k]); diff > tol*(1+math.Abs(dense[k])) {
					t.Fatalf("%s: doc %d token %d topic %d: dense %v vs sparse %v (diff %v)",
						name, d, i, k, dense[k], sparse[k], diff)
				}
			}
			v.inc(zd[i])
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no tokens checked", name)
	}

	var freeSmooth float64
	for k := 0; k < v.K; k++ {
		freeSmooth += v.alpha * v.beta * v.freeDen[k]
	}
	if diff := math.Abs(freeSmooth - v.sparse.freeSmooth); diff > tol*(1+freeSmooth) {
		t.Fatalf("%s: freeSmooth drifted: incremental %v vs recomputed %v", name, v.sparse.freeSmooth, freeSmooth)
	}
	var srcSmooth float64
	for s := 0; s < v.S; s++ {
		srcSmooth += v.alpha * v.defMass[s]
	}
	if diff := math.Abs(srcSmooth - v.sparse.srcSmooth); diff > tol*(1+srcSmooth) {
		t.Fatalf("%s: srcSmooth drifted: incremental %v vs recomputed %v", name, v.sparse.srcSmooth, srcSmooth)
	}
}

// TestSparseConditionalMatchesDense is the tentpole's correctness property:
// after real sweeps (λ reweighting, pruning, sharding all in play), the
// bucket decomposition must reproduce the dense per-topic conditional of
// gibbsView.fill within 1e-9 for every token — in the sequential view and in
// every shard's private view.
func TestSparseConditionalMatchesDense(t *testing.T) {
	const tol = 1e-9
	for _, seed := range []int64{3, 17} {
		data, err := synth.MedlineLike(synth.MedlineOptions{
			NumTopics:  9,
			LiveTopics: 5,
			NumDocs:    20,
			AvgDocLen:  25,
			Alpha:      0.2,
			Mu:         0.7,
			Sigma:      0.3,
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range sparseConfigs() {
			opts := sparseBaseOptions(seed)
			cfg.set(&opts)
			m, err := NewModel(data.Corpus, data.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(opts.Iterations)
			if len(m.shards) > 1 {
				// Each shard's private slab is internally consistent for the
				// shard's own documents: the view saw every local update.
				for _, sh := range m.shards {
					checkViewAgainstDense(t, cfg.name, m, sh.view, sh.lo, sh.hi, tol)
				}
			} else {
				checkViewAgainstDense(t, cfg.name, m, m.seq, 0, m.D, tol)
			}
			m.Close()
		}
	}
}

// TestSparseDrawMatchesDenseDistribution pins the draw itself: over a
// stratified grid of uniform variates, the topics selected by the bucket
// walk must land with the same frequencies as the dense conditional's
// normalized probabilities. The grid is deterministic, so the per-topic
// discrepancy is bounded by (intervals per topic)/n — well under the 0.005
// assertion — and the test cannot flake.
func TestSparseDrawMatchesDenseDistribution(t *testing.T) {
	data, err := synth.MedlineLike(synth.MedlineOptions{
		NumTopics: 7, LiveTopics: 4, NumDocs: 12, AvgDocLen: 20,
		Alpha: 0.2, Mu: 0.7, Sigma: 0.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := sparseBaseOptions(5)
	opts.NumFreeTopics = 2
	m, err := NewModel(data.Corpus, data.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Run(8)

	v := m.seq
	dense := make([]float64, m.T)
	const n = 4000
	r := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		d := r.Intn(m.D)
		if len(m.z[d]) == 0 {
			continue
		}
		i := r.Intn(len(m.z[d]))
		w := m.c.Docs[d].Words[i]
		v.setDoc(m.counts.docRow(d))
		v.setToken(w)
		v.dec(m.z[d][i])

		v.fill(dense)
		var total float64
		for _, p := range dense {
			total += p
		}
		freq := make([]float64, m.T)
		for g := 0; g < n; g++ {
			u := (float64(g) + 0.5) / n
			k, ok := v.sparse.draw(u)
			if !ok {
				t.Fatalf("draw reported degenerate mass with total %v", total)
			}
			if dense[k] <= 0 {
				t.Fatalf("draw selected topic %d with zero dense mass", k)
			}
			freq[k] += 1.0 / n
		}
		for k := 0; k < m.T; k++ {
			if diff := math.Abs(freq[k] - dense[k]/total); diff > 0.005 {
				t.Fatalf("topic %d drawn with frequency %v, dense probability %v", k, freq[k], dense[k]/total)
			}
		}
		v.inc(m.z[d][i])
	}
}

// TestSparseChainConsistency runs full sparse chains (sequential and
// multi-shard) and checks the global invariants: counts match assignments,
// every token is accounted for, and the likelihood does not degrade.
func TestSparseChainConsistency(t *testing.T) {
	data := sweepFixture(t)
	for _, cfg := range []struct {
		name string
		set  func(*Options)
	}{
		{"sequential", func(o *Options) {}},
		{"sharded", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 5; o.Threads = 3 }},
	} {
		opts := Options{
			NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
			LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
			QuadraturePoints: 5, Iterations: 20, Seed: 11,
			Sampler: SamplerSparse, TraceLikelihood: true,
			PruneDeadTopics: true, PruneAfter: 8, PruneEvery: 5,
		}
		cfg.set(&opts)
		m, err := Fit(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantWord := make([]int32, m.V*m.T)
		wantTotal := make([]int32, m.T)
		for d, doc := range data.Corpus.Docs {
			for i, w := range doc.Words {
				k := m.z[d][i]
				wantWord[w*m.T+k]++
				wantTotal[k]++
			}
		}
		for i, n := range wantWord {
			if m.counts.wordTopic[i] != n {
				t.Fatalf("%s: wordTopic[%d] = %d, want %d", cfg.name, i, m.counts.wordTopic[i], n)
			}
		}
		for k, n := range wantTotal {
			if m.counts.topicTotal[k] != n {
				t.Fatalf("%s: topicTotal[%d] = %d, want %d", cfg.name, k, m.counts.topicTotal[k], n)
			}
		}
		trace := m.LikelihoodTrace
		if last, first := trace[len(trace)-1], trace[0]; last < first-1e-9 {
			t.Fatalf("%s: sparse chain degraded the likelihood: %v → %v", cfg.name, first, last)
		}
		m.Close()
	}
}

// TestSparseSequentialEqualsOneShard pins the sparse analogue of the
// sharded-mode exactness contract: one shard with the sparse kernel IS the
// sequential sparse chain.
func TestSparseSequentialEqualsOneShard(t *testing.T) {
	data := sweepFixture(t)
	base := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, Iterations: 15, Seed: 4242,
		Sampler: SamplerSparse,
	}
	ref, err := Fit(data.Corpus, data.Source, base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	opts := base
	opts.SweepMode = SweepShardedDocs
	opts.Shards = 1
	opts.Threads = 4
	m, err := Fit(data.Corpus, data.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	assignmentsEqual(t, "sparse-one-shard", m.Assignments(), ref.Assignments())
}

// TestSparseShardedDeterministic: the multi-shard sparse chain is a pure
// function of (seed, shard count), exactly like the dense one.
func TestSparseShardedDeterministic(t *testing.T) {
	data := sweepFixture(t)
	opts := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, Iterations: 12, Seed: 77,
		SweepMode: SweepShardedDocs, Shards: 4, Threads: 4,
		Sampler: SamplerSparse,
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
	assignmentsEqual(t, "second sparse run", m2.Assignments(), m1.Assignments())
}

// TestSparseCheckpointResume extends the checkpoint contract to the sparse
// kernel: the bucket state is a pure function of the counts, so restoring
// mid-run and finishing must be bit-identical to an uninterrupted sparse run
// in both sweep modes.
func TestSparseCheckpointResume(t *testing.T) {
	data := sweepFixture(t)
	base := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, UseSmoothing: true,
		PruneDeadTopics: true, PruneAfter: 8, PruneEvery: 5,
		Iterations: 24, Seed: 4242,
		Sampler: SamplerSparse, TraceLikelihood: true,
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"sequential", func(o *Options) {}},
		{"sharded-multi", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 4; o.Threads = 4 }},
	}
	for _, v := range variants {
		opts := base
		v.set(&opts)
		full, err := Fit(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Result()
		full.Close()
		for _, split := range []int{5, 12, 23} {
			m, err := NewModel(data.Corpus, data.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(split)
			ck := m.Checkpoint()
			m.Close()
			resumed, err := Restore(data.Corpus, data.Source, opts, ck)
			if err != nil {
				t.Fatalf("%s split %d: restore: %v", v.name, split, err)
			}
			resumed.Run(opts.Iterations - split)
			resultsEqualModuloTimes(t, v.name+"-sparse", resumed.Result(), want)
			resumed.Close()
		}
	}
}

// TestPrunedTopicNeverRegainsTokens is the regression test for the
// degenerate-fallback bug: rng.Categorical and the dense draw's searchTarget
// used to fall back to a uniform draw over ALL indices on zero/NaN total
// mass, which could assign a token to a pruned (probability-zero) topic and
// silently resurrect it. The fallbacks are now restricted to positive-mass
// support, so once a topic is pruned it must stay empty for the rest of the
// chain — under every sampling kernel.
func TestPrunedTopicNeverRegainsTokens(t *testing.T) {
	data := sweepFixture(t)
	for _, kind := range []SamplerKind{SamplerSerial, SamplerSparse} {
		opts := Options{
			NumFreeTopics: 2, Alpha: 0.2, Beta: 0.01,
			LambdaMode: LambdaFixed, Lambda: 0.8,
			Iterations: 30, Seed: 13,
			Sampler: kind, Threads: 2,
			// Aggressive schedule so several topics are pruned early and the
			// chain keeps sweeping long after.
			PruneDeadTopics: true, PruneAfter: 5, PruneEvery: 2,
			PruneMinDocs: 4, PruneMinTokens: 2,
		}
		m, err := NewModel(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		pruned := false
		err = m.RunWithHook(opts.Iterations, func(sweep int, cm *Model) error {
			counts := cm.TokensPerTopic()
			for k, dead := range cm.DisabledTopics() {
				if !dead {
					continue
				}
				pruned = true
				if counts[k] != 0 {
					t.Fatalf("%v: sweep %d: pruned topic %d holds %d tokens", kind, sweep, k, counts[k])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !pruned {
			t.Fatalf("%v: pruning never triggered; the regression is unexercised", kind)
		}
		m.Close()
	}
}

// TestSparseSamplerName pins the enum surface.
func TestSparseSamplerName(t *testing.T) {
	if SamplerSparse.String() != "sparse" {
		t.Fatalf("SamplerSparse renders as %q", SamplerSparse)
	}
}
