package infer

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/oracle"
	"sourcelda/internal/rng"
)

// mutation selects a deliberately wrong variant of twoBucketFoldIn, so the
// oracle can show it tells a correct fold-in from a broken one.
type mutation int

const (
	exact         mutation = iota
	smoothNoAlpha          // the smoothing bucket's mass is Σ_t row[t], without α
	docPlusAlpha           // the document bucket weighs n_{d,t}+α, so α counts twice
	staleLive              // a topic stays in the live list when its count reaches 0
)

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
// whose θ is the constant α/(N+Tα), which oracle.Z cannot score: its standard
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
	n := make([]int, f.T)
	marg := oracle.Posterior(len(words), f.T, func(z []int) float64 {
		clear(n)
		var logp float64
		for i, w := range words {
			n[z[i]]++
			logp += math.Log(f.Cond(w)[z[i]])
		}
		for _, c := range n {
			lg, _ := math.Lgamma(float64(c) + f.Alpha)
			logp += lg
		}
		return logp
	})
	return oracle.Theta(marg, len(words), f.T, f.Alpha, nil)
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
			oracle.MustHit(t, "Engine.Infer", want, c.seeds, engine)
			for seed := int64(1); seed <= 20; seed++ {
				got := twoBucketFoldIn(f, c.words, seed, burnIn, samples, exact)
				if !slices.Equal(got, engine(seed)) {
					t.Fatalf("seed %d: the two-bucket copy diverges from Engine.Infer", seed)
				}
			}
			dense := func(fault oracle.Fault) func(int64) []float64 {
				return func(seed int64) []float64 {
					return oracle.FoldIn(f.Cond, f.T, f.V, f.Alpha, c.words, seed, burnIn, samples, fault)
				}
			}
			twoBucket := func(mut mutation) func(int64) []float64 {
				return func(seed int64) []float64 {
					return twoBucketFoldIn(f, c.words, seed, burnIn, samples, mut)
				}
			}
			oracle.MustMiss(t, want, c.seeds, []oracle.Mutation{
				{Name: "no-alpha", Sample: dense(oracle.NoAlpha)},
				{Name: "no-decrement", Sample: dense(oracle.NoDecrement)},
				{Name: "smoothing-without-alpha", Sample: twoBucket(smoothNoAlpha)},
				{Name: "document-plus-alpha", Sample: twoBucket(docPlusAlpha)},
				{Name: "stale-live-topic", Sample: twoBucket(staleLive)},
			})
		})
	}
}
