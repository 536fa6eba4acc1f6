package infer

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/rng"
)

// mutation selects a deliberately wrong variant of refFoldIn, so the oracle
// can show it tells a correct fold-in from a broken one.
type mutation int

const (
	exact       mutation = iota
	noAlpha              // weights use n_{d,t} without the + α prior
	noDecrement          // the current token is not removed before its draw

	// Mutations of twoBucketFoldIn, the two-bucket kernel.
	smoothNoAlpha // the smoothing bucket's mass is Σ_t row[t], without α
	docPlusAlpha  // the document bucket weighs n_{d,t}+α, so α counts twice
	staleLive     // a topic stays in the live list when its count reaches 0
)

// refFoldIn is a test-local copy of the fold-in kernel in its plainest form:
// fill the weights row[t]·(n_{d,t}+α), then rng.Categorical's sum and linear
// scan. With mut == exact it consumes the same stream as Engine.Infer and
// must return the same bits.
func refFoldIn(f *core.Frozen, words []int, seed int64, burnIn, samples int, mut mutation) []float64 {
	var known []int
	for _, w := range words {
		if w >= 0 && w < f.V {
			known = append(known, w)
		}
	}
	if len(known) == 0 {
		return nil
	}
	r := rng.NewStream(seed, rng.TokenStream(known))
	T, alpha := f.T, f.Alpha
	nd := make([]int32, T)
	z := make([]int, len(known))
	probs := make([]float64, T)
	for i, w := range known {
		t := r.Categorical(f.Cond(w))
		z[i] = t
		nd[t]++
	}
	theta := make([]float64, T)
	den := float64(len(known)) + float64(T)*alpha
	for sweep := 0; sweep < burnIn+samples; sweep++ {
		for i, w := range known {
			if mut != noDecrement {
				nd[z[i]]--
			}
			row := f.Cond(w)
			for t := range probs {
				switch mut {
				case noAlpha:
					probs[t] = row[t] * float64(nd[t])
				default:
					probs[t] = row[t] * (float64(nd[t]) + alpha)
				}
			}
			if mut == noDecrement {
				nd[z[i]]--
			}
			t := r.Categorical(probs)
			z[i] = t
			nd[t]++
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

// twoBucketFoldIn is a test-local copy of Engine.Infer's two-bucket kernel,
// written out plainly — a live list searched linearly, fresh slices — so a
// mutation can break one part of it. With mut == exact it consumes the same
// stream as Engine.Infer and returns the same bits on any view whose totals
// are finite and positive (it has no degenerate-total fallback).
func twoBucketFoldIn(f *core.Frozen, words []int, seed int64, burnIn, samples int, mut mutation) []float64 {
	var known []int
	for _, w := range words {
		if w >= 0 && w < f.V {
			known = append(known, w)
		}
	}
	if len(known) == 0 {
		return nil
	}
	r := rng.NewStream(seed, rng.TokenStream(known))
	T, alpha := f.T, f.Alpha
	nb := (T + blockSize - 1) / blockSize
	nd := make([]int32, T)
	var live []int
	inc := func(t int) {
		nd[t]++
		if nd[t] == 1 {
			live = append(live, t)
		}
	}
	dec := func(t int) {
		nd[t]--
		if nd[t] == 0 && mut != staleLive {
			k := slices.Index(live, t)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	z := make([]int, len(known))
	mass := make([]float64, len(known))
	blocks := make([]float64, len(known)*nb)
	for i, w := range known {
		row, blk := f.Cond(w), blocks[i*nb:(i+1)*nb]
		mass[i] = sumBlocks(row, blk)
		z[i] = pickBlocks(row, blk, r.Float64()*mass[i])
		inc(z[i])
	}
	theta := make([]float64, T)
	den := float64(len(known)) + float64(T)*alpha
	for sweep := 0; sweep < burnIn+samples; sweep++ {
		for i, w := range known {
			dec(z[i])
			row, blk := f.Cond(w), blocks[i*nb:(i+1)*nb]
			cum := make([]float64, len(live))
			var doc float64
			for k, t := range live {
				n := float64(nd[t])
				if mut == docPlusAlpha {
					n += alpha
				}
				doc += row[t] * n
				cum[k] = doc
			}
			scale := alpha
			if mut == smoothNoAlpha {
				scale = 1
			}
			x := r.Float64() * (doc + scale*mass[i])
			if x < doc {
				k := 0
				for x >= cum[k] {
					k++
				}
				z[i] = live[k]
			} else {
				z[i] = pickBlocks(row, blk, (x-doc)/scale)
			}
			inc(z[i])
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

// oracleView is a T=3, V=3 frozen model whose topics overlap enough that the
// posterior over assignments is far from its prior: word 0 leans to topic 0,
// word 1 to topic 1, and topic 2 spreads over words 0 and 2.
func oracleView(t testing.TB) *core.Frozen {
	t.Helper()
	cond := []float64{
		0.80, 0.05, 0.40,
		0.10, 0.90, 0.20,
		0.10, 0.05, 0.40,
	}
	f, err := core.FrozenFromCond(cond, 3, 3, []string{"a", "b", "c"}, []int{0, 1, -1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// blocksView is a T=70, V=3 frozen model whose topics span three draw
// blocks, the last one partial. Each word leans to a few topics in
// different blocks, and words 0 and 1 share topic 33, so the posterior
// rewards tokens that share a topic. (A pruned column would give a topic
// whose θ is the constant α/(N+Tα), which worstZ cannot score: its standard
// error is 0. TestDrawIntervalsOracle covers pruned columns.)
func blocksView(t testing.TB) *core.Frozen {
	t.Helper()
	const T, V = 70, 3
	lean := [V][]int{{2, 33, 66}, {33, 40}, {5, 64, 69}}
	cond := make([]float64, T*V)
	for w := range lean {
		for topic := 0; topic < T; topic++ {
			cond[w*T+topic] = 0.004 + 0.002*float64(topic%5)
		}
		for _, topic := range lean[w] {
			cond[w*T+topic] = 0.3
		}
	}
	labels := make([]string, T)
	sources := make([]int, T)
	for topic := range labels {
		labels[topic] = fmt.Sprintf("t%d", topic)
		sources[topic] = topic
	}
	f, err := core.FrozenFromCond(cond, T, V, labels, sources, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// exactTheta enumerates every assignment z ∈ [0,T)^N of the document under
// the frozen Φ, weights it by p(z | w) ∝ Π_i φ_{z_i}(w_i) · Π_t Γ(n_t+α),
// and returns the exact posterior mean of (n_t+α)/(N+Tα) — the quantity each
// post-burn-in sample of the fold-in estimates.
func exactTheta(f *core.Frozen, words []int) []float64 {
	T, N, alpha := f.T, len(words), f.Alpha
	states := 1
	for range words {
		states *= T
	}
	den := float64(N) + float64(T)*alpha
	mean := make([]float64, T)
	n := make([]int, T)
	var norm float64
	for s := 0; s < states; s++ {
		clear(n)
		logp, code := 0.0, s
		for _, w := range words {
			z := code % T
			code /= T
			n[z]++
			logp += math.Log(f.Cond(w)[z])
		}
		for t := range n {
			lg, _ := math.Lgamma(float64(n[t]) + alpha)
			logp += lg
		}
		p := math.Exp(logp)
		norm += p
		for t := range mean {
			mean[t] += p * (float64(n[t]) + alpha) / den
		}
	}
	for t := range mean {
		mean[t] /= norm
	}
	return mean
}

// worstZ runs sample(seed) for seeds 1..seeds and returns the largest
// |mean − want| / standard error over topics.
func worstZ(want []float64, seeds int, sample func(seed int64) []float64) float64 {
	T := len(want)
	sum := make([]float64, T)
	sq := make([]float64, T)
	for s := 1; s <= seeds; s++ {
		theta := sample(int64(s))
		for t, v := range theta {
			sum[t] += v
			sq[t] += v * v
		}
	}
	worst := 0.0
	n := float64(seeds)
	for t := range want {
		mean := sum[t] / n
		variance := (sq[t] - n*mean*mean) / (n - 1)
		se := math.Sqrt(math.Max(variance, 0) / n)
		z := math.Inf(1)
		if se > 0 {
			z = math.Abs(mean-want[t]) / se
		} else if mean == want[t] {
			z = 0
		}
		worst = math.Max(worst, z)
	}
	return worst
}

// TestFoldInOracle checks the fold-in against the exact posterior it is
// meant to sample: averaged over many seeds, Engine.Infer's θ must match the
// enumerated E[(n_t+α)/(N+Tα)] within 5 standard errors, while broken
// kernels must miss it: the dense kernel with the prior dropped from the
// weights, or the current token left in its own counts; and the two-bucket
// kernel with α dropped from the smoothing bucket, α added to the document
// bucket as well, or an emptied topic left in the live list. The two-bucket
// copy, unbroken, must reproduce Engine.Infer's bits, so its mutations are
// mutations of the kernel the engine runs. Determinism tests pin the same
// bits; this pins the right distribution.
func TestFoldInOracle(t *testing.T) {
	cases := []struct {
		name  string
		view  func(testing.TB) *core.Frozen
		words []int
		seeds int
		long  bool
	}{
		{"4-tokens", oracleView, []int{0, 2, 1, 2}, 4000, false},
		{"5-tokens", oracleView, []int{0, 0, 1, 2, 2}, 8000, true},
		// T=70 spans three blocks of the smoothing bucket: 70³ states.
		{"T=70/3-tokens", blocksView, []int{0, 1, 2}, 4000, false},
	}
	const burnIn, samples = DefaultBurnIn, DefaultSamples
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("long oracle case skipped under -short")
			}
			f := c.view(t)
			want := exactTheta(f, c.words)
			engine := func(seed int64) []float64 {
				e, err := New(f, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				return e.Infer(c.words).Theta
			}
			if z := worstZ(want, c.seeds, engine); z > 5 {
				t.Fatalf("Engine.Infer misses the exact posterior mean %v by %.1f standard errors", want, z)
			}
			for seed := int64(1); seed <= 20; seed++ {
				got := twoBucketFoldIn(f, c.words, seed, burnIn, samples, exact)
				if !slices.Equal(got, engine(seed)) {
					t.Fatalf("seed %d: the two-bucket copy diverges from Engine.Infer", seed)
				}
			}
			for _, m := range []struct {
				name string
				mut  mutation
				run  func(*core.Frozen, []int, int64, int, int, mutation) []float64
			}{
				{"no-alpha", noAlpha, refFoldIn},
				{"no-decrement", noDecrement, refFoldIn},
				{"smoothing-without-alpha", smoothNoAlpha, twoBucketFoldIn},
				{"document-plus-alpha", docPlusAlpha, twoBucketFoldIn},
				{"stale-live-topic", staleLive, twoBucketFoldIn},
			} {
				broken := func(seed int64) []float64 {
					return m.run(f, c.words, seed, burnIn, samples, m.mut)
				}
				if z := worstZ(want, c.seeds, broken); z <= 5 {
					t.Errorf("%s kernel passes the oracle (%.1f standard errors): the check cannot see it", m.name, z)
				} else {
					t.Logf("%s kernel misses by %.1f standard errors", m.name, z)
				}
			}
		})
	}
}
