package sourcelda

import (
	"math"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/infer"
	"sourcelda/internal/oracle"
	"sourcelda/internal/parallel"
)

// l1 returns Σ_t |a[t] − b[t]|.
func l1(a, b []float64) float64 {
	var d float64
	for t := range a {
		d += math.Abs(a[t] - b[t])
	}
	return d
}

// TestFoldInReference measures the fold-in's θ error against a long-chain
// reference on the BenchmarkInfer fixtures (T=36 and T=1032): for each of
// their 32 documents, a 4,000-sample chain of the dense kernel (oracle.FoldIn)
// is the reference, and over 5 seeds per document it reports the mean
// L1(θ, reference) of the dense kernel and of infer.Engine at the default
// (20, 10) schedule, and of the engine at (10, 5). Both kernels sample the
// same posterior, so the engine must be no worse than the dense kernel by
// more than 2 standard errors of the paired difference.
func TestFoldInReference(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("long-chain reference skipped under -short and the race detector")
	}
	const (
		seeds      = 5
		refSamples = 4000
		refSeed    = 1 << 20
	)
	for _, c := range []struct {
		name  string
		model func(testing.TB) (*core.Frozen, [][]int)
	}{
		{"small-T36", benchInferModel},
		{"skewed-T1032", benchInferSkewed},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, docs := c.model(t)
			ref := make([][]float64, len(docs))
			pool := parallel.NewPool(2)
			pool.Run(len(docs), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ref[i] = oracle.FoldIn(f.Cond, f.T, f.V, f.Alpha, docs[i], refSeed, infer.DefaultBurnIn, refSamples, oracle.Exact)
				}
			})
			pool.Close()

			var dense, engine, short, diff []float64
			for seed := int64(1); seed <= seeds; seed++ {
				def, err := infer.New(f, infer.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				half, err := infer.New(f, infer.Options{Seed: seed, BurnIn: 10, Samples: 5})
				if err != nil {
					t.Fatal(err)
				}
				for i, words := range docs {
					d := l1(oracle.FoldIn(f.Cond, f.T, f.V, f.Alpha, words, seed, infer.DefaultBurnIn, infer.DefaultSamples, oracle.Exact), ref[i])
					e := l1(def.Infer(words).Theta, ref[i])
					dense = append(dense, d)
					engine = append(engine, e)
					short = append(short, l1(half.Infer(words).Theta, ref[i]))
					diff = append(diff, e-d)
				}
			}
			dm, ds := oracle.MeanSE(dense)
			em, es := oracle.MeanSE(engine)
			sm, ss := oracle.MeanSE(short)
			gap, gapSE := oracle.MeanSE(diff)
			t.Logf("mean L1(θ, %d-sample reference) over %d docs × %d seeds: dense (20, 10) %.4f ± %.4f · engine (20, 10) %.4f ± %.4f · engine (10, 5) %.4f ± %.4f",
				refSamples, len(docs), seeds, dm, ds, em, es, sm, ss)
			if gap > 2*gapSE {
				t.Errorf("engine is worse than the dense kernel by %.4f ± %.4f (more than 2 SE)", gap, gapSE)
			}
		})
	}
}
