package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(7)
	cases := []struct{ shape, scale float64 }{
		{0.5, 1}, {1, 2}, {3, 1}, {9.5, 0.5}, {0.1, 1},
	}
	for _, c := range cases {
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(c.shape, c.scale)
			if x < 0 {
				t.Fatalf("Gamma(%v,%v) drew negative %v", c.shape, c.scale, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.1*wantMean+0.02 {
			t.Errorf("Gamma(%v,%v) mean %v, want ≈%v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.25*wantVar+0.05 {
			t.Errorf("Gamma(%v,%v) var %v, want ≈%v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive shape")
		}
	}()
	New(1).Gamma(0, 1)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(11)
	alpha := []float64{0.5, 1.5, 3, 0.1}
	out := make([]float64, 4)
	for i := 0; i < 200; i++ {
		r.Dirichlet(alpha, out)
		var s float64
		for _, x := range out {
			if x < 0 {
				t.Fatalf("negative component %v", x)
			}
			s += x
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("sum %v, want 1", s)
		}
	}
}

func TestDirichletMean(t *testing.T) {
	// E[X_i] = alpha_i / sum(alpha).
	r := New(13)
	alpha := []float64{2, 6}
	out := make([]float64, 2)
	var mean0 float64
	const n = 20000
	for i := 0; i < n; i++ {
		r.Dirichlet(alpha, out)
		mean0 += out[0]
	}
	mean0 /= n
	if math.Abs(mean0-0.25) > 0.01 {
		t.Fatalf("mean of first component %v, want ≈0.25", mean0)
	}
}

func TestDirichletLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Dirichlet([]float64{1, 2}, make([]float64, 3))
}

func TestDirichletSymmetricConcentration(t *testing.T) {
	r := New(17)
	out := make([]float64, 10)
	// Small alpha: most mass on few atoms — max component should usually be
	// large.
	var maxSum float64
	for i := 0; i < 500; i++ {
		r.DirichletSymmetric(0.01, out)
		max := 0.0
		for _, x := range out {
			if x > max {
				max = x
			}
		}
		maxSum += max
	}
	if avg := maxSum / 500; avg < 0.8 {
		t.Errorf("alpha=0.01 mean max component %v, want > 0.8 (concentrated)", avg)
	}
	// Large alpha: near uniform.
	maxSum = 0
	for i := 0; i < 500; i++ {
		r.DirichletSymmetric(100, out)
		max := 0.0
		for _, x := range out {
			if x > max {
				max = x
			}
		}
		maxSum += max
	}
	if avg := maxSum / 500; avg > 0.2 {
		t.Errorf("alpha=100 mean max component %v, want < 0.2 (≈uniform)", avg)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Errorf("variance %v, want ≈4", variance)
	}
}

func TestNormalZeroSigma(t *testing.T) {
	if got := New(1).Normal(5, 0); got != 5 {
		t.Fatalf("Normal(5, 0) = %v, want exactly 5", got)
	}
}

func TestTruncatedNormalBounds(t *testing.T) {
	r := New(23)
	for i := 0; i < 5000; i++ {
		x := r.TruncatedNormal(0.5, 1.0, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("draw %v outside [0,1]", x)
		}
	}
	// Far-out mean still lands in bounds.
	for i := 0; i < 100; i++ {
		x := r.TruncatedNormal(50, 0.1, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("far-mean draw %v outside [0,1]", x)
		}
	}
}

func TestClampedNormalEndpointMasses(t *testing.T) {
	// Clamped N(0.5, 1.0) on [0,1] puts ≈31% mass at each endpoint — the
	// paper's λ bounding (§IV-B) relies on exactly this behaviour.
	r := New(61)
	const n = 20000
	var zeros, ones int
	for i := 0; i < n; i++ {
		x := r.ClampedNormal(0.5, 1.0, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("draw %v outside [0,1]", x)
		}
		if x == 0 {
			zeros++
		}
		if x == 1 {
			ones++
		}
	}
	pZero := float64(zeros) / n
	pOne := float64(ones) / n
	if math.Abs(pZero-0.3085) > 0.02 || math.Abs(pOne-0.3085) > 0.02 {
		t.Fatalf("endpoint masses %v / %v, want ≈0.31 each", pZero, pOne)
	}
	// Swapped bounds normalize.
	if x := r.ClampedNormal(0.5, 1.0, 1, 0); x < 0 || x > 1 {
		t.Fatalf("swapped-bounds draw %v", x)
	}
}

func TestTruncatedNormalSwappedBounds(t *testing.T) {
	x := New(3).TruncatedNormal(0.5, 1, 1, 0) // lo > hi swaps
	if x < 0 || x > 1 {
		t.Fatalf("draw %v outside [0,1]", x)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(29)
	for _, lambda := range []float64{0.5, 4, 25, 600} {
		const n = 5000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.1*lambda+0.2 {
			t.Errorf("Poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	if New(1).Poisson(0) != 0 || New(1).Poisson(-3) != 0 {
		t.Fatal("non-positive lambda must return 0")
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(31)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	p0 := float64(counts[0]) / n
	if math.Abs(p0-0.25) > 0.02 {
		t.Errorf("P(0) = %v, want ≈0.25", p0)
	}
}

func TestCategoricalDegenerateWeights(t *testing.T) {
	r := New(37)
	// A NaN-poisoned total falls back to a uniform draw over the positive
	// weights only: index 1 has weight zero and must never be drawn, even
	// though the total mass is degenerate.
	for i := 0; i < 100; i++ {
		k := r.Categorical([]float64{1, 0, math.NaN()})
		if k != 0 {
			t.Fatalf("degenerate fallback drew index %d, want 0 (the only positive weight)", k)
		}
	}
	// Same contract for the cumulative form: the degenerate total (NaN last
	// entry) restricts the draw to indices with a positive increment.
	for i := 0; i < 100; i++ {
		k := r.CategoricalCumulative([]float64{0, 2, math.NaN()})
		if k != 1 {
			t.Fatalf("cumulative degenerate fallback drew index %d, want 1", k)
		}
	}
}

func TestCategoricalNoPositiveMassPanics(t *testing.T) {
	for name, draw := range map[string]func(r *RNG){
		"categorical": func(r *RNG) { r.Categorical([]float64{0, 0, 0}) },
		"cumulative":  func(r *RNG) { r.CategoricalCumulative([]float64{0, 0, 0}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("draw over weights with no positive mass must panic, not invent a category")
				}
			}()
			draw(New(37))
		})
	}
}

func TestCategoricalCumulativeAgreesWithLinear(t *testing.T) {
	weights := []float64{0.2, 0.5, 0.1, 1.2}
	cum := make([]float64, len(weights))
	run := 0.0
	for i, w := range weights {
		run += w
		cum[i] = run
	}
	// With identical uniform streams the two methods must agree exactly.
	a, b := New(99), New(99)
	for i := 0; i < 2000; i++ {
		if x, y := a.Categorical(weights), b.CategoricalCumulative(cum); x != y {
			t.Fatalf("draw %d: linear %d vs cumulative %d", i, x, y)
		}
	}
}

func TestMultinomialTotals(t *testing.T) {
	r := New(41)
	counts := r.Multinomial(1000, []float64{0.5, 0.5})
	if counts[0]+counts[1] != 1000 {
		t.Fatalf("counts sum %d, want 1000", counts[0]+counts[1])
	}
}

func TestZipfHeadHeavier(t *testing.T) {
	r := New(43)
	tab := NewZipfTable(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[tab.Draw(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	probs := tab.Probabilities()
	var s float64
	for i, p := range probs {
		if i > 0 && p > probs[i-1]+1e-12 {
			t.Fatalf("Zipf PMF must be non-increasing: p[%d]=%v > p[%d]=%v", i, p, i-1, probs[i-1])
		}
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", s)
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		out := r.SampleWithoutReplacement(20, 10)
		if len(out) != 10 {
			return false
		}
		seen := map[int]bool{}
		for _, x := range out {
			if x < 0 || x >= 20 || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSampleWithoutReplacement(t *testing.T) {
	r := New(47)
	weights := []float64{0, 10, 0, 10, 0}
	out := r.WeightedSampleWithoutReplacement(weights, 2)
	seen := map[int]bool{}
	for _, x := range out {
		if seen[x] {
			t.Fatal("duplicate index")
		}
		seen[x] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("positive-weight indices not preferred: %v", out)
	}
	// Requesting all indices must work even with zero weights present.
	out = r.WeightedSampleWithoutReplacement(weights, 5)
	if len(out) != 5 {
		t.Fatalf("got %d indices, want 5", len(out))
	}
	seen = map[int]bool{}
	for _, x := range out {
		if seen[x] {
			t.Fatal("duplicate index in exhaustive draw")
		}
		seen[x] = true
	}
}

func TestBernoulliProbability(t *testing.T) {
	r := New(53)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("P = %v, want ≈0.3", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(59)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, x := range p {
		if x < 0 || x >= 10 || seen[x] {
			t.Fatal("not a permutation")
		}
		seen[x] = true
	}
}

func TestTokenStream(t *testing.T) {
	// Pure function of content.
	if TokenStream([]int{1, 2, 3}) != TokenStream([]int{1, 2, 3}) {
		t.Fatal("TokenStream is not deterministic")
	}
	// Sensitive to content and order, and non-negative.
	ids := map[int64]bool{}
	for _, words := range [][]int{{1, 2, 3}, {3, 2, 1}, {1, 2}, {}, {0}, {0, 0}} {
		id := TokenStream(words)
		if id < 0 {
			t.Fatalf("negative stream id %d for %v", id, words)
		}
		if ids[id] {
			t.Fatalf("stream collision for %v", words)
		}
		ids[id] = true
	}
}

func TestNewStreamDeterministicAndDecorrelated(t *testing.T) {
	// Same (seed, stream) → identical sequence.
	a, b := NewStream(42, 3), NewStream(42, 3)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("stream is not a pure function of (seed, stream)")
		}
	}
	// Sibling streams, and stream 0 vs New(seed), must differ.
	pairs := [][2]*RNG{
		{NewStream(42, 0), NewStream(42, 1)},
		{NewStream(42, 0), New(42)},
		{NewStream(42, 1), NewStream(43, 1)},
	}
	for i, pr := range pairs {
		same := 0
		for j := 0; j < 64; j++ {
			if pr[0].Float64() == pr[1].Float64() {
				same++
			}
		}
		if same == 64 {
			t.Fatalf("pair %d: streams are identical", i)
		}
	}
}

// TestResetStreamMatchesNewStream pins that a used generator re-seeded in
// place continues exactly like a fresh NewStream, position included.
func TestResetStreamMatchesNewStream(t *testing.T) {
	r := New(7)
	for _, stream := range []int64{0, 5, 1 << 40} {
		r.Normal(0, 1)
		r.Categorical([]float64{1, 2, 3})
		r.ResetStream(42, stream)
		want := NewStream(42, stream)
		if r.Pos() != 0 {
			t.Fatalf("stream %d: position %d after reset", stream, r.Pos())
		}
		for i := 0; i < 100; i++ {
			if a, b := r.Float64(), want.Float64(); a != b {
				t.Fatalf("stream %d draw %d: reset %v, fresh %v", stream, i, a, b)
			}
		}
	}
}

// TestPosSkipResume is the checkpointing contract: a fresh generator
// fast-forwarded with Skip(Pos()) continues the exact sequence of the
// original, across every distribution sampler the Gibbs chain uses.
func TestPosSkipResume(t *testing.T) {
	for _, stream := range []int64{0, 1, 7} {
		a := NewStream(99, stream)
		// Consume a mixed workload so the position reflects samplers that
		// draw a variable number of source steps (Normal's ziggurat, Gamma's
		// rejection loop), not just one-step uniforms.
		for i := 0; i < 1000; i++ {
			a.Float64()
			a.Intn(17)
			a.Normal(0.5, 0.2)
			a.Gamma(0.7, 1.3)
			a.Categorical([]float64{1, 2, 3, 4})
		}
		pos := a.Pos()
		if pos == 0 {
			t.Fatal("Pos did not advance")
		}
		b := NewStream(99, stream)
		b.Skip(pos)
		if b.Pos() != pos {
			t.Fatalf("Skip(%d) left Pos at %d", pos, b.Pos())
		}
		for i := 0; i < 1000; i++ {
			if av, bv := a.Float64(), b.Float64(); av != bv {
				t.Fatalf("stream %d diverged at draw %d after skip: %v != %v", stream, i, av, bv)
			}
			if av, bv := a.Normal(0, 1), b.Normal(0, 1); av != bv {
				t.Fatalf("stream %d Normal diverged at draw %d: %v != %v", stream, i, av, bv)
			}
		}
		if a.Pos() != b.Pos() {
			t.Fatalf("positions diverged after identical draws: %d != %d", a.Pos(), b.Pos())
		}
	}
}
