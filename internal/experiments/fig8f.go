package experiments

import (
	"fmt"
	"slices"
	"time"

	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/parallel"
	"sourcelda/internal/rng"
	"sourcelda/internal/textproc"
)

// bigTWorkload builds a corpus plus a T-topic knowledge source over a
// *shared* vocabulary, so very large topic counts stay within memory (the
// word-topic count matrix is V×T). Topics differ by which shared words they
// emphasize.
func bigTWorkload(T, vocabSize, docs, avgLen int, seed int64) (*corpus.Corpus, *knowledge.Source) {
	r := rng.New(seed)
	vocab := textproc.NewVocabulary()
	for w := 0; w < vocabSize; w++ {
		vocab.Add(fmt.Sprintf("w%04d", w))
	}
	const wordsPerTopic = 25
	articles := make([]*knowledge.Article, T)
	topicWords := make([][]int, T)
	for t := 0; t < T; t++ {
		words := r.SampleWithoutReplacement(vocabSize, wordsPerTopic)
		counts := make(map[int]int, wordsPerTopic)
		total := 0
		for rank, w := range words {
			n := 40 / (rank + 1)
			if n < 1 {
				n = 1
			}
			counts[w] = n
			total += n
		}
		articles[t] = &knowledge.Article{
			Label:       fmt.Sprintf("topic-%04d", t),
			Counts:      counts,
			TotalTokens: total,
		}
		topicWords[t] = words
	}
	src := knowledge.MustNewSource(articles)

	c := corpus.NewWithVocab(vocab)
	for d := 0; d < docs; d++ {
		n := avgLen/2 + r.Intn(avgLen)
		doc := &corpus.Document{Words: make([]int, n)}
		// Each document mixes 3 random topics' vocabularies.
		t1, t2, t3 := r.Intn(T), r.Intn(T), r.Intn(T)
		pick := [][]int{topicWords[t1], topicWords[t2], topicWords[t3]}
		for i := range doc.Words {
			words := pick[r.Intn(3)]
			doc.Words[i] = words[r.Intn(len(words))]
		}
		c.AddDocument(doc)
	}
	return c, src
}

// runFig8f regenerates Fig. 8(f): average Gibbs iteration time as the total
// topic count T sweeps upward, and what the paper's two within-token parallel
// kernels (Algorithms 2 and 3) cost per draw next to the sequential scan.
//
// The paper demonstrates linear scaling in T and easy parallelization. The
// linearity check runs full sweeps through internal/core on one thread. The
// kernels are not core samplers (see kernels.go), so they are timed per draw
// on the T-vectors the fitted chain yields — φ_t(w)·θ_d(t) for sampled tokens
// — each against the sequential scan on the same vector with the same
// uniform variate, which must select the same index: the paper's exactness
// claim, checked here rather than assumed.
func runFig8f(cfg Config) (*Report, error) {
	r := newReport("fig8f", "Fig. 8(f): average iteration time vs topics and threads",
		"iteration time grows linearly with the number of topics; the sampler "+
			"parallelizes without changing results (paper sweeps T to 10,000)")
	tSweep := []int{100, 300, 1000, 3000}
	docs, avgLen, vocabSize, sweeps := 80, 50, 2000, 3
	threads := []int{3, 6}
	draws, reps := 256, 8
	if cfg.Quick {
		tSweep = []int{50, 150}
		docs, avgLen, vocabSize, sweeps = 30, 25, 500, 4
		threads = []int{3}
		draws, reps = 64, 2
	}
	r.Parameters = fmt.Sprintf("T ∈ %v, D=%d, Davg≈%d, V=%d, %d timed sweeps on 1 thread; %d draws × %d passes per kernel, kernel threads %v, seed=%d",
		tSweep, docs, avgLen, vocabSize, sweeps, draws, reps, threads, cfg.seed())

	type kernel struct {
		name, metric string
		sample       func(probs []float64, u float64) int
	}
	kernels := []kernel{{"sequential", "sequential", (&sequentialScan{}).sample}}
	for _, p := range threads {
		pool := parallel.NewPool(p)
		defer pool.Close()
		kernels = append(kernels,
			kernel{fmt.Sprintf("Alg.3 ×%d", p), fmt.Sprintf("simple_parallel_threads%d", p), (&simpleParallel{pool: pool}).sample},
			kernel{fmt.Sprintf("Alg.2 ×%d", p), fmt.Sprintf("prefix_sums_threads%d", p), (&prefixSums{pool: pool}).sample})
	}
	header := fmt.Sprintf("%-8s %16s", "Topics", "sweep ms (1 thr)")
	for _, k := range kernels {
		header += fmt.Sprintf(" %11s", k.name)
	}
	r.addLine("%s   (ns per draw)", header)

	sweepSecs := make([]float64, len(tSweep)) // average, what the figure plots
	fastest := make([]float64, len(tSweep))   // what the linearity check compares
	drawNs := make([]float64, len(kernels))   // at the largest T
	mismatches := 0
	for ti, T := range tSweep {
		c, src := bigTWorkload(T, vocabSize, docs, avgLen, cfg.seed()+int64(T))
		m, err := core.Fit(c, src, core.Options{
			Alpha:      0.5,
			Beta:       0.01,
			LambdaMode: core.LambdaFixed,
			Lambda:     1,
			Iterations: sweeps,
			Seed:       cfg.seed(),
		})
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for _, d := range m.IterationTimes {
			total += d
		}
		sweepSecs[ti] = total.Seconds() / float64(len(m.IterationTimes))
		fastest[ti] = slices.Min(m.IterationTimes).Seconds()
		phi, theta := m.Phi(), m.Theta()
		m.Close()

		pick := rng.New(cfg.seed() + int64(T))
		vectors := make([][]float64, draws)
		us := make([]float64, draws)
		for i := range vectors {
			d := pick.Intn(len(c.Docs))
			w := c.Docs[d].Words[pick.Intn(len(c.Docs[d].Words))]
			probs := make([]float64, T)
			for t := range probs {
				probs[t] = phi[t][w] * theta[d][t]
			}
			vectors[i], us[i] = probs, pick.Float64()
		}
		want := make([]int, draws)
		line := fmt.Sprintf("%-8d %16.2f", T, 1000*sweepSecs[ti])
		for ki, k := range kernels {
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				for i, probs := range vectors {
					got := k.sample(probs, us[i])
					if ki == 0 {
						want[i] = got
					} else if got != want[i] {
						mismatches++
					}
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(draws*reps)
			drawNs[ki] = ns
			line += fmt.Sprintf(" %11.0f", ns)
		}
		r.addLine("%s", line)
	}

	// Linearity in T for the single-thread series: time ratio within 3× of
	// the topic-count ratio on either side (the paper's "linearly
	// scalable"). The ratio is taken over each T's fastest sweep: a
	// sub-millisecond quick-mode sweep descheduled once on a busy box
	// otherwise moves a two-point average by more than the band.
	first, last := 0, len(tSweep)-1
	tRatio := float64(tSweep[last]) / float64(tSweep[first])
	timeRatio := fastest[last] / fastest[first]
	r.metric("t_ratio", tRatio)
	r.metric("time_ratio_1thread", timeRatio)
	r.check(timeRatio < tRatio*3 && timeRatio > tRatio/6,
		"1-thread time ratio %.1f tracks topic ratio %.1f (linear scaling)", timeRatio, tRatio)
	r.metric(fmt.Sprintf("avg_seconds_T%d_threads1", tSweep[last]), sweepSecs[last])
	for ki, k := range kernels {
		r.metric(fmt.Sprintf("draw_ns_T%d_%s", tSweep[last], k.metric), drawNs[ki])
	}
	r.metric("kernel_index_mismatches", float64(mismatches))
	r.check(mismatches == 0,
		"Algorithms 2 and 3 select the sequential scan's index on every draw (%d mismatches)", mismatches)
	r.addLine("")
	r.addLine("note: the parallel kernels pay a pool barrier per phase of every draw, so")
	r.addLine("they time slower than the sequential scan at these topic counts; the engine")
	r.addLine("parallelizes across documents instead (core.SweepShardedDocs).")
	return r, nil
}
