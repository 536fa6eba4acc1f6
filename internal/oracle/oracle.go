// Package oracle is the exact-law harness of the sampler tests. A collapsed
// Gibbs sampler over N tokens and T topics is a Markov chain on [0,T)^N; on
// toy inputs that space is enumerable, so the law a sampler must reach is
// computed exactly, as a normalized joint (Posterior) or as the fixed point
// of the one-sweep operator built from per-token full conditionals
// (Stationary), both reduced to marginals P(z_i = t) flattened i*T + t.
// Z scores seeded runs against it; a sampler must sit within Bound standard
// errors (MustHit), and each deliberately broken kernel beyond it (MustMiss).
//
// Every reference kernel follows the collapsed Gibbs step: decrement the
// token's counts, fill its full conditional, draw, increment; a mutation
// breaks one of those parts. Only test files import this package, and it
// imports no repository package but rng and mathx, so core's tests can too.
package oracle

import (
	"math"
	"slices"
	"testing"

	"sourcelda/internal/mathx"
	"sourcelda/internal/rng"
)

// Bound is the distance, in standard errors, within which a correct sampler
// must sit and beyond which a broken one must fall.
const Bound = 5

// states returns T^N, the number of assignments of N tokens to T topics.
func states(N, T int) int {
	n := 1
	for range N {
		n *= T
	}
	return n
}

// decode writes state code's assignment into z (token i is digit i, base T).
func decode(code, T int, z []int) {
	for i := range z {
		z[i] = code % T
		code /= T
	}
}

// marginals reduces a distribution over states to per-token marginals,
// flattened i*T + t.
func marginals(pi []float64, N, T int) []float64 {
	out := make([]float64, N*T)
	z := make([]int, N)
	for code, p := range pi {
		decode(code, T, z)
		for i, t := range z {
			out[i*T+t] += p
		}
	}
	return out
}

// Posterior returns the per-token marginals of the law ∝ exp(logWeight(z))
// over every assignment of N tokens to T topics.
func Posterior(N, T int, logWeight func(z []int) float64) []float64 {
	logp := make([]float64, states(N, T))
	z := make([]int, N)
	top := math.Inf(-1)
	for code := range logp {
		decode(code, T, z)
		logp[code] = logWeight(z)
		top = math.Max(top, logp[code])
	}
	var norm float64
	for code, l := range logp {
		logp[code] = math.Exp(l - top)
		norm += logp[code]
	}
	for code := range logp {
		logp[code] /= norm
	}
	return marginals(logp, N, T)
}

// Stationary iterates the exact one-sweep transition operator — tokens 0 to
// N−1 in order, each redrawn from cond — from the uniform law to its fixed
// point and returns the per-token marginals there. cond(z, i, out) writes
// token i's normalized full conditional given the other tokens of z.
func Stationary(t testing.TB, N, T int, cond func(z []int, i int, out []float64)) []float64 {
	t.Helper()
	n := states(N, T)
	// table[i][code*T+t]: token i's conditional from state code. It ignores
	// z_i, so one row serves every value of that digit.
	table := make([][]float64, N)
	z := make([]int, N)
	for i := range table {
		table[i] = make([]float64, n*T)
		for code := 0; code < n; code++ {
			decode(code, T, z)
			cond(z, i, table[i][code*T:(code+1)*T])
		}
	}
	pi := make([]float64, n)
	for code := range pi {
		pi[code] = 1 / float64(n)
	}
	next := make([]float64, n)
	for sweep := 0; sweep < 10000; sweep++ {
		prev := slices.Clone(pi)
		stride := 1
		for i := 0; i < N; i++ {
			clear(next)
			for code, p := range pi {
				if p == 0 {
					continue
				}
				base := code - (code/stride%T)*stride
				for t, c := range table[i][code*T : (code+1)*T] {
					next[base+t*stride] += p * c
				}
			}
			pi, next = next, pi
			stride *= T
		}
		var diff float64
		for code := range pi {
			diff = math.Max(diff, math.Abs(pi[code]-prev[code]))
		}
		if diff < 1e-15 {
			return marginals(pi, N, T)
		}
	}
	t.Fatal("the exact transition operator did not reach its fixed point")
	return nil
}

// Theta returns E[(n_t+α)/(N+T'α)] for one document of N tokens from its
// per-token marginals, where n_t counts its tokens in topic t and T' the
// topics off does not mark; a marked topic reads 0 (nil off marks none). The
// mean is linear in n_t, so E[n_t] = Σ_i P(z_i = t) gives it exactly.
func Theta(marg []float64, N, T int, alpha float64, off []bool) []float64 {
	live := T
	for _, o := range off {
		if o {
			live--
		}
	}
	theta := make([]float64, T)
	for t := range theta {
		if off != nil && off[t] {
			continue
		}
		var n float64
		for i := 0; i < N; i++ {
			n += marg[i*T+t]
		}
		theta[t] = (n + alpha) / (float64(N) + float64(live)*alpha)
	}
	return theta
}

// Z runs sample(seed) for seeds 1..seeds and returns the largest
// |mean − want| / standard error over the entries of want, and the largest
// |mean − want|. An entry whose samples never vary scores 0 when its mean is
// want exactly and +Inf otherwise.
func Z(want []float64, seeds int, sample func(seed int64) []float64) (z, bias float64) {
	sum := make([]float64, len(want))
	sq := make([]float64, len(want))
	for s := 1; s <= seeds; s++ {
		for k, v := range sample(int64(s)) {
			sum[k] += v
			sq[k] += v * v
		}
	}
	n := float64(seeds)
	for k := range want {
		mean := sum[k] / n
		se := math.Sqrt(math.Max((sq[k]-n*mean*mean)/(n-1), 0) / n)
		bias = math.Max(bias, math.Abs(mean-want[k]))
		switch {
		case se > 0:
			z = math.Max(z, math.Abs(mean-want[k])/se)
		case mean != want[k]:
			z = math.Inf(1)
		}
	}
	return z, bias
}

// MustHit fails t unless sample lies within Bound standard errors of want
// over seeds, and logs the distance.
func MustHit(t testing.TB, name string, want []float64, seeds int, sample func(seed int64) []float64) {
	t.Helper()
	if z, bias := Z(want, seeds, sample); z > Bound {
		t.Errorf("%s misses the exact law by %.1f standard errors (largest bias %.4f)", name, z, bias)
	} else {
		t.Logf("%s within %.1f standard errors (largest bias %.4f)", name, z, bias)
	}
}

// Mutation is a deliberately broken kernel, run for one seed by Sample.
type Mutation struct {
	Name   string
	Sample func(seed int64) []float64
}

// MustMiss logs each mutation's distance from want over seeds and fails t
// for each within Bound standard errors: the check cannot see that fault.
func MustMiss(t testing.TB, want []float64, seeds int, muts []Mutation) {
	t.Helper()
	for _, m := range muts {
		if z, _ := Z(want, seeds, m.Sample); z <= Bound {
			t.Errorf("%s kernel passes the oracle (%.1f standard errors): the check cannot see it", m.Name, z)
		} else {
			t.Logf("%s kernel misses by %.1f standard errors", m.Name, z)
		}
	}
}

// MeanSE returns the mean of xs and its standard error.
func MeanSE(xs []float64) (mean, se float64) {
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

// Fault selects a deliberately broken variant of FoldIn.
type Fault int

const (
	Exact       Fault = iota
	NoAlpha           // weights use n_{d,t} without the + α prior
	NoDecrement       // the current token is not removed before its draw
)

// FoldIn is the dense fold-in kernel over a frozen model whose word w has
// the T-length topic weights cond(w), with vocabulary size V and document
// prior α: per token, decrement, fill row[t]·(n_{d,t}+α) into a running sum
// in one pass over T, binary-search u·total in it (rng.Categorical for a
// degenerate total), increment. After burnIn sweeps it averages
// (n_{d,t}+α)/(N+Tα) over samples sweeps. Words outside [0, V) are dropped;
// a document with none returns nil. It is the kernel infer.Engine ran before
// its two-bucket draw, and returns the bits that engine did at the same
// schedule; TestFoldInReference's long-chain reference is this kernel run
// for 4,000 samples.
func FoldIn(cond func(w int) []float64, T, V int, alpha float64, words []int, seed int64, burnIn, samples int, fault Fault) []float64 {
	var known []int
	for _, w := range words {
		if w >= 0 && w < V {
			known = append(known, w)
		}
	}
	if len(known) == 0 {
		return nil
	}
	r := rng.NewStream(seed, rng.TokenStream(known))
	nd := make([]int32, T)
	z := make([]int, len(known))
	cum := make([]float64, T)
	for i, w := range known {
		z[i] = r.Categorical(cond(w))
		nd[z[i]]++
	}
	prior := alpha
	if fault == NoAlpha {
		prior = 0
	}
	theta := make([]float64, T)
	den := float64(len(known)) + float64(T)*alpha
	for sweep := 0; sweep < burnIn+samples; sweep++ {
		for i, w := range known {
			if fault != NoDecrement {
				nd[z[i]]--
			}
			var run float64
			for t, p := range cond(w) {
				run += float64(p * (float64(nd[t]) + prior))
				cum[t] = run
			}
			var k int
			if run > 0 && !math.IsInf(run, 0) {
				k = mathx.SearchCumulative(cum, r.Float64()*run)
			} else {
				for t, p := range cond(w) {
					cum[t] = p * (float64(nd[t]) + prior)
				}
				k = r.Categorical(cum)
			}
			if fault == NoDecrement {
				nd[z[i]]--
			}
			z[i] = k
			nd[k]++
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
