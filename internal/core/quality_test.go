package core

import (
	"math"
	"testing"

	"sourcelda/internal/eval"
	"sourcelda/internal/oracle"
	"sourcelda/internal/rng"
	"sourcelda/internal/synth"
)

// TestSparseQualityMatchesSerial: the sparse kernel samples Eq. 2–3's
// conditional along a different arithmetic path, so for one seed it draws a
// different chain from the serial scan, and the two are compared in
// distribution instead of by bits. On BenchmarkSweepModes' skewed-T204
// corpus (12 of 200 articles generate it, 6 free topics), 8 seeds a kernel
// and 100 sweeps each, the mean token-classification accuracy against the
// generating topics and the mean held-out perplexity must agree within 2
// standard errors of their difference.
func TestSparseQualityMatchesSerial(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("16 training runs skipped under -short and -race")
	}
	data, err := synth.MedlineLike(synth.MedlineOptions{
		NumTopics: 200, LiveTopics: 12, NumDocs: 60, AvgDocLen: 60,
		Alpha: 0.1, Mu: 0.7, Sigma: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := data.Corpus.Split(0.15, rng.New(11))
	const seeds = 8
	var acc, ppx [2][]float64
	for k, kind := range []SamplerKind{SamplerSerial, SamplerSparse} {
		for seed := int64(1); seed <= seeds; seed++ {
			m, err := Fit(train, data.Source, Options{
				NumFreeTopics: 6, Alpha: 0.1, Beta: 0.01,
				LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
				QuadraturePoints: 7, Iterations: 100, Seed: seed, Sampler: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			truth := make([]int, m.NumTopics())
			for topic := range truth {
				truth[topic] = m.SourceIndex(topic)
			}
			res, err := eval.ClassifyTokens(train, m.Assignments(), truth)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.HeldOutPerplexity(test, 30, 15, seed+100)
			if err != nil {
				t.Fatal(err)
			}
			m.Close()
			acc[k] = append(acc[k], res.Accuracy())
			ppx[k] = append(ppx[k], p)
		}
	}
	for _, metric := range []struct {
		name string
		xs   [2][]float64
	}{{"token accuracy", acc}, {"held-out perplexity", ppx}} {
		serial, serialSE := oracle.MeanSE(metric.xs[0])
		sparse, sparseSE := oracle.MeanSE(metric.xs[1])
		se := math.Hypot(serialSE, sparseSE)
		t.Logf("%s: serial %.4f, sparse %.4f (difference SE %.4f)", metric.name, serial, sparse, se)
		if d := math.Abs(serial - sparse); d > 2*se {
			t.Errorf("%s: serial %.4f and sparse %.4f differ by %.1f standard errors", metric.name, serial, sparse, d/se)
		}
	}
}
