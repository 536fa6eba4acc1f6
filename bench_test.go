// Benchmarks: one testing.B benchmark per paper table/figure (each drives
// the same harness as `cmd/experiments` in Quick mode, so `go test -bench`
// regenerates every artifact), plus kernel micro-benchmarks and the ablation
// benches called out in DESIGN.md §4.
package sourcelda

import (
	"fmt"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/experiments"
	"sourcelda/internal/infer"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/lda"
	"sourcelda/internal/parallel"
	"sourcelda/internal/smoothing"
	"sourcelda/internal/synth"
)

// benchExperiment runs one paper artifact end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(experiments.Config{Quick: true, Seed: int64(42 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) == 0 {
			b.Fatal("no output")
		}
	}
}

func BenchmarkCaseStudy(b *testing.B) { benchExperiment(b, "case-study") }
func BenchmarkFig2(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig8a(b *testing.B)     { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)     { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)     { benchExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B)     { benchExperiment(b, "fig8d") }
func BenchmarkFig8e(b *testing.B)     { benchExperiment(b, "fig8e") }
func BenchmarkFig8f(b *testing.B)     { benchExperiment(b, "fig8f") }

// benchCorpus builds a reusable mid-size workload for kernel benchmarks.
func benchCorpus(b *testing.B) (*synth.MedlineData, error) {
	b.Helper()
	return synth.MedlineLike(synth.MedlineOptions{
		NumTopics:  30,
		LiveTopics: 12,
		NumDocs:    120,
		AvgDocLen:  60,
		Alpha:      0.1,
		Mu:         0.7,
		Sigma:      0.3,
		Seed:       7,
	})
}

// benchSkewedT1024 builds the regime srcldabench's train_skewed_t1024
// workload measures, at its size: a 1024-article superset of which 100
// topics generate the corpus, ~3 signature words per topic, ~50 k tokens,
// under the srclda binary's data-derived priors. Nearly every (word, source
// topic) pair is unsupported here, so model build, the dense scan and Phi
// are all dominated by the shared default-δ row.
func benchSkewedT1024(b *testing.B) (*synth.MedlineData, core.Options) {
	b.Helper()
	data, err := synth.MedlineLike(synth.MedlineOptions{
		NumTopics: 1024, LiveTopics: 100,
		NumDocs: 260, AvgDocLen: 200,
		WordsPerTopic: 3, ArticleTokens: 150,
		Alpha: 0.1, Mu: 0.9, Sigma: 0.05,
		Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	const free = 8
	return data, core.Options{
		NumFreeTopics: free,
		Alpha:         50.0 / float64(free+data.Source.Len()),
		Beta:          200.0 / float64(data.Corpus.VocabSize()),
		LambdaMode:    core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 9, UseSmoothing: true,
		Iterations: 1, Seed: 3,
	}
}

// BenchmarkNewModel measures core.NewModel — per-topic g estimation, the δ
// quadrature store and the prior-driven initial assignments — which every
// trainer start, checkpoint restore and learner restart pays before the
// first sweep.
func BenchmarkNewModel(b *testing.B) {
	small, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	skewed, skewedOpts := benchSkewedT1024(b)
	for _, c := range []struct {
		name string
		data *synth.MedlineData
		opts core.Options
	}{
		{"small-T36", small, core.Options{
			NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
			LambdaMode: core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
			QuadraturePoints: 7, UseSmoothing: true, Seed: 3,
		}},
		{"skewed-T1024", skewed, skewedOpts},
	} {
		b.Run(c.name, func(b *testing.B) {
			tokens := c.data.Corpus.TotalTokens()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := core.NewModel(c.data.Corpus, c.data.Source, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(tokens)*float64(b.N)/secs, "tokens/sec")
			}
		})
	}
}

// BenchmarkGibbsSweepSourceLDA measures one full-model collapsed Gibbs sweep.
func BenchmarkGibbsSweepSourceLDA(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewModel(data.Corpus, data.Source, core.Options{
		NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
		LambdaMode: core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 7, Iterations: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	tokens := data.Corpus.TotalTokens()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(1)
	}
	b.ReportMetric(float64(tokens), "tokens/sweep")
}

// BenchmarkGibbsSweepLDA measures a baseline LDA sweep on the same corpus.
func BenchmarkGibbsSweepLDA(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := lda.Fit(data.Corpus, lda.Options{
			NumTopics: 12, Alpha: 0.1, Beta: 0.01, Iterations: 1, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADLDAWorkers sweeps the document-sharded approximate parallel
// LDA (the §III-C4 contrast class) across worker counts.
func BenchmarkADLDAWorkers(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := lda.FitADLDA(data.Corpus, lda.ADLDAOptions{
					NumTopics: 12, Alpha: 0.1, Beta: 0.01,
					Iterations: 2, Seed: 3, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepModes compares Gibbs sweep throughput (tokens/sec) across
// the corpus-traversal modes: the exact sequential sweep with the serial
// scan and with the sparse bucket-decomposed kernel, and the document-sharded
// data-parallel sweep at increasing shard counts. Sharded sweeps with S
// shards use S worker threads, so the series shows both the flat-state
// single-core gain and the multi-core scaling.
//
// The "skewed-T204" group is the sparse kernel's home turf — and its
// acceptance gate (≥1.5× over serial): 204 topics of which only a dozen
// generate the corpus, so after a few sweeps each token's mass concentrates
// on a handful of document- and word-active topics while the dense kernel
// keeps paying K + S·P per token.
//
// The "skewed-T1024" group is the regime srcldabench's train_skewed_t1024
// measures (see benchSkewedT1024): the dense kernel's cost there is the
// per-topic scan itself, not the quadrature, because almost every source
// topic takes the cached default-mass path.
func BenchmarkSweepModes(b *testing.B) {
	small, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	skewed, err := synth.MedlineLike(synth.MedlineOptions{
		NumTopics:  200,
		LiveTopics: 12,
		NumDocs:    60,
		AvgDocLen:  60,
		Alpha:      0.1,
		Mu:         0.7,
		Sigma:      0.3,
		Seed:       7,
	})
	if err != nil {
		b.Fatal(err)
	}
	base := core.Options{
		NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
		LambdaMode: core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 7, Iterations: 1, Seed: 3,
	}
	type mode struct {
		name string
		data *synth.MedlineData
		set  func(*core.Options)
	}
	modes := []mode{
		{"sequential/serial", small, func(o *core.Options) {}},
		{"sequential/sparse", small, func(o *core.Options) { o.Sampler = core.SamplerSparse }},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		modes = append(modes, mode{
			fmt.Sprintf("sharded/shards=%d", shards),
			small,
			func(o *core.Options) {
				o.SweepMode = core.SweepShardedDocs
				o.Shards = shards
				o.Threads = shards
			},
		})
	}
	modes = append(modes,
		mode{"skewed-T204/serial", skewed, func(o *core.Options) {}},
		mode{"skewed-T204/sparse", skewed, func(o *core.Options) { o.Sampler = core.SamplerSparse }},
		mode{"skewed-T204/sharded-sparse-4", skewed, func(o *core.Options) {
			o.Sampler = core.SamplerSparse
			o.SweepMode = core.SweepShardedDocs
			o.Shards = 4
			o.Threads = 4
		}},
	)
	skewed1k, skewed1kOpts := benchSkewedT1024(b)
	modes = append(modes,
		mode{"skewed-T1024/serial", skewed1k, func(o *core.Options) { *o = skewed1kOpts }},
		mode{"skewed-T1024/sparse", skewed1k, func(o *core.Options) {
			*o = skewed1kOpts
			o.Sampler = core.SamplerSparse
		}},
	)
	for _, md := range modes {
		b.Run(md.name, func(b *testing.B) {
			opts := base
			md.set(&opts)
			m, err := core.NewModel(md.data.Corpus, md.data.Source, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			// Warm-up sweeps concentrate each token's topic support the way
			// a real mid-training sweep looks; without them the sparse
			// kernel is benchmarked on its worst case (uniformly random
			// initial assignments) and the dense kernels on their best.
			m.Run(3)
			tokens := md.data.Corpus.TotalTokens()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(1)
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(tokens)*float64(b.N)/secs, "tokens/sec")
			}
		})
	}
}

// benchInferModel fits a mid-size model once and builds held-out documents
// for the serving benchmarks.
func benchInferModel(b *testing.B) (*core.Frozen, [][]int) {
	b.Helper()
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Fit(data.Corpus, data.Source, core.Options{
		NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
		LambdaMode: core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 7, Iterations: 20, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	// Held-out docs: reuse corpus token streams (the engine never sees the
	// training assignments, only the frozen conditionals).
	docs := make([][]int, 32)
	for i := range docs {
		docs[i] = data.Corpus.Docs[i%data.Corpus.NumDocs()].Words
	}
	return m.Freeze(), docs
}

// BenchmarkInfer measures single-document fold-in inference — the serving
// hot path of cmd/srcldad.
func BenchmarkInfer(b *testing.B) {
	frozen, docs := benchInferModel(b)
	e, err := infer.New(frozen, infer.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.Infer(docs[i%len(docs)]); d.Theta == nil {
			b.Fatal("no mixture")
		}
	}
}

// BenchmarkInferBatch measures batched inference throughput across worker
// counts (docs/sec over a 32-document batch).
func BenchmarkInferBatch(b *testing.B) {
	frozen, docs := benchInferModel(b)
	e, err := infer.New(frozen, infer.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.NewPool(workers)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.InferBatch(docs, pool)
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(len(docs))*float64(b.N)/secs, "docs/sec")
			}
		})
	}
}

// BenchmarkAblationQuadrature sweeps the λ quadrature node count A
// (DESIGN.md ablation 1): accuracy of the integral vs per-token cost.
func BenchmarkAblationQuadrature(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []int{3, 7, 15, 31} {
		b.Run(fmt.Sprintf("A=%d", a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.NewModel(data.Corpus, data.Source, core.Options{
					NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
					LambdaMode: core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
					QuadraturePoints: a, Iterations: 1, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				m.Run(1)
				m.Close()
			}
		})
	}
}

// BenchmarkAblationDeltaRepresentation compares sparse powered-δ lookups
// against materializing dense vectors (DESIGN.md ablation 2): Dense() per
// topic is what a naive implementation would pay per quadrature point.
func BenchmarkAblationDeltaRepresentation(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	v := data.Corpus.VocabSize()
	h := data.Source.Article(0).Hyperparams(v, knowledge.DefaultEpsilon)
	pd := h.Pow(0.7)
	words := data.Corpus.Docs[0].Words
	b.Run("sparse-lookup", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, w := range words {
				sink += pd.Value(w)
			}
		}
		_ = sink
	})
	b.Run("dense-materialize", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			dense := h.Pow(0.7).Dense()
			for _, w := range words {
				sink += dense[w]
			}
		}
		_ = sink
	})
}

// BenchmarkAblationSmoothing compares g(λ) estimation strategies
// (DESIGN.md ablation 3): Monte-Carlo vs the deterministic mean-field
// shortcut.
func BenchmarkAblationSmoothing(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	v := data.Corpus.VocabSize()
	art := data.Source.Article(0)
	h := art.Hyperparams(v, knowledge.DefaultEpsilon)
	src := art.SmoothedDistribution(v, knowledge.DefaultEpsilon)
	b.Run("monte-carlo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			smoothing.Estimate(h, src, smoothing.Config{GridPoints: 11, Samples: 30, Seed: 1})
		}
	})
	b.Run("mean-field", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			smoothing.Estimate(h, src, smoothing.Config{GridPoints: 11, MeanField: true, Seed: 1})
		}
	})
}

// BenchmarkAblationLambdaPosterior compares frozen prior-weighted λ
// quadrature against the per-topic posterior reweighting (DESIGN.md
// ablation; see core.Options.FreezeLambdaWeights).
func BenchmarkAblationLambdaPosterior(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	for _, frozen := range []bool{false, true} {
		name := "posterior"
		if frozen {
			name = "frozen-prior"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.NewModel(data.Corpus, data.Source, core.Options{
					NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
					LambdaMode: core.LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
					QuadraturePoints: 7, FreezeLambdaWeights: frozen,
					LambdaBurnIn: 1, Iterations: 1, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				m.Run(3)
				m.Close()
			}
		})
	}
}

// BenchmarkSupersetReduction measures the §III-C3 post-processing paths.
func BenchmarkSupersetReduction(b *testing.B) {
	data, err := benchCorpus(b)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Fit(data.Corpus, data.Source, core.Options{
		NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
		LambdaMode: core.LambdaFixed, Lambda: 1,
		Iterations: 20, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	res := m.Result()
	b.Run("by-doc-frequency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.ReduceByDocumentFrequency(2, 2)
		}
	})
	b.Run("to-k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.ReduceToK(12)
		}
	})
}
