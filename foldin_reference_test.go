package sourcelda

import (
	"math"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/infer"
	"sourcelda/internal/mathx"
	"sourcelda/internal/parallel"
	"sourcelda/internal/rng"
)

// refFoldIn is the dense fold-in kernel infer.Engine ran before the
// two-bucket draw: each token's weights row[t]·(n_{d,t}+α) summed in one
// pass over T into a running sum, and u·total binary-searched in it, with
// rng.Categorical for a degenerate total. At (20, 10) it returns the bits
// the engine used to.
func refFoldIn(f *core.Frozen, words []int, seed int64, burnIn, samples int) []float64 {
	var known []int
	for _, w := range words {
		if w >= 0 && w < f.V {
			known = append(known, w)
		}
	}
	r := rng.NewStream(seed, rng.TokenStream(known))
	T, alpha := f.T, f.Alpha
	nd := make([]int32, T)
	z := make([]int, len(known))
	cum := make([]float64, T)
	for i, w := range known {
		z[i] = r.Categorical(f.Cond(w))
		nd[z[i]]++
	}
	theta := make([]float64, T)
	den := float64(len(known)) + float64(T)*alpha
	for sweep := 0; sweep < burnIn+samples; sweep++ {
		for i, w := range known {
			nd[z[i]]--
			var run float64
			for t, p := range f.Cond(w) {
				run += float64(p * (float64(nd[t]) + alpha))
				cum[t] = run
			}
			if run > 0 && !math.IsInf(run, 0) {
				z[i] = mathx.SearchCumulative(cum, r.Float64()*run)
			} else {
				for t, p := range f.Cond(w) {
					cum[t] = p * (float64(nd[t]) + alpha)
				}
				z[i] = r.Categorical(cum)
			}
			nd[z[i]]++
		}
		if sweep >= burnIn {
			for t := range theta {
				theta[t] += (float64(nd[t]) + alpha) / den
			}
		}
	}
	inv := 1 / float64(samples)
	for t := range theta {
		theta[t] *= inv
	}
	return theta
}

// l1 returns Σ_t |a[t] − b[t]|.
func l1(a, b []float64) float64 {
	var d float64
	for t := range a {
		d += math.Abs(a[t] - b[t])
	}
	return d
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1) / n)
}

// TestFoldInReference measures the fold-in's θ error against a long-chain
// reference on the BenchmarkInfer fixtures (T=36 and T=1032): for each of
// their 32 documents, a 4,000-sample chain of the dense kernel (refFoldIn)
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
					ref[i] = refFoldIn(f, docs[i], refSeed, infer.DefaultBurnIn, refSamples)
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
					d := l1(refFoldIn(f, words, seed, infer.DefaultBurnIn, infer.DefaultSamples), ref[i])
					e := l1(def.Infer(words).Theta, ref[i])
					dense = append(dense, d)
					engine = append(engine, e)
					short = append(short, l1(half.Infer(words).Theta, ref[i]))
					diff = append(diff, e-d)
				}
			}
			dm, ds := meanSE(dense)
			em, es := meanSE(engine)
			sm, ss := meanSE(short)
			gap, gapSE := meanSE(diff)
			t.Logf("mean L1(θ, %d-sample reference) over %d docs × %d seeds: dense (20, 10) %.4f ± %.4f · engine (20, 10) %.4f ± %.4f · engine (10, 5) %.4f ± %.4f",
				refSamples, len(docs), seeds, dm, ds, em, es, sm, ss)
			if gap > 2*gapSE {
				t.Errorf("engine is worse than the dense kernel by %.4f ± %.4f (more than 2 SE)", gap, gapSE)
			}
		})
	}
}
