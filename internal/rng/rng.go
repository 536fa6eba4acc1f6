// Package rng provides the deterministic random-number generation used by
// every sampler in the repository: Gamma and Dirichlet draws for topic-word
// distributions, Gaussian draws for the λ prior, Poisson draws for document
// lengths, Zipf draws for synthetic vocabularies, and categorical draws for
// Gibbs sampling. All generators are seeded explicitly so experiments are
// reproducible bit-for-bit.
//
// The determinism contract has three layers. NewStream(seed, i) derives
// decorrelated substreams that are pure functions of their inputs — shard i
// of a sharded training sweep always replays the same sequence regardless
// of worker count or scheduling. TokenStream keys a substream id off token
// content, making document inference a pure function of (model, seed,
// text). Pos and Skip expose a generator's position as a replayable step
// count, which is how training checkpoints capture and restore mid-run RNG
// state exactly (see internal/core's checkpoint subsystem).
package rng

import (
	"math"
	"math/rand"

	"sourcelda/internal/mathx"
)

// RNG wraps a seeded source with the distribution samplers the topic models
// need. It is not safe for concurrent use; create one per goroutine.
type RNG struct {
	src *rand.Rand
	cs  *countingSource
}

// countingSource wraps the underlying rand source and counts how many times
// its state has advanced. Every distribution sampler on RNG ultimately draws
// through Int63/Uint64 here, and each call advances the source state by
// exactly one step, so the counter is a complete description of the stream
// position: recreating the source from its seed and stepping it Pos() times
// reproduces the generator state bit for bit. This is what makes mid-run
// checkpointing of a Gibbs chain exact — see RNG.Pos and RNG.Skip.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// New returns a generator seeded with seed.
func New(seed int64) *RNG {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{src: rand.New(cs), cs: cs}
}

// Pos returns the number of source steps the generator has consumed since
// construction. Together with the (seed, stream) pair that created the
// generator, Pos fully determines its state: New/NewStream with the same
// inputs followed by Skip(Pos()) yields a generator that continues the
// exact same random sequence.
func (r *RNG) Pos() uint64 { return r.cs.n }

// Skip advances the generator by n source steps without producing values —
// the fast-forward half of the Pos/Skip checkpointing contract. Skipping
// steps the raw source directly (no distribution machinery), at roughly a
// nanosecond per step, so replaying even a long chain's position is cheap
// relative to the sweeps that produced it.
func (r *RNG) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		r.cs.src.Uint64()
	}
	r.cs.n += n
}

// NewStream returns the generator for substream `stream` of a root seed.
// The (seed, stream) pair is passed through a SplitMix64 finalizer so
// sibling streams are decorrelated from each other and from New(seed),
// while remaining a pure function of their inputs: a document shard keeps
// the same random sequence no matter how many worker threads execute it or
// in which order shards are scheduled.
func NewStream(seed, stream int64) *RNG {
	return New(streamSeed(seed, stream))
}

// ResetStream re-seeds r in place to the state NewStream(seed, stream)
// returns, position zero included, without allocating — for a hot path that
// keeps one generator per worker and draws a fresh stream per item.
func (r *RNG) ResetStream(seed, stream int64) {
	r.src.Seed(streamSeed(seed, stream))
}

func streamSeed(seed, stream int64) int64 {
	x := mix64(uint64(seed) + (uint64(stream)+1)*0x9E3779B97F4A7C15)
	// Keep the derived seed non-negative for rand.NewSource.
	return int64(x &^ (1 << 63))
}

// TokenStream hashes a token-id sequence into a substream id for NewStream.
// Deriving a document's fold-in RNG stream from its content (rather than
// its position in a batch) makes inference a pure function of (seed,
// document): the same document produces bit-for-bit identical results
// whether it is scored alone, inside any batch, or beside other callers'
// requests on a serving daemon.
func TokenStream(words []int) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h = mix64(h ^ uint64(int64(w)))
	}
	// Non-negative so the id reads cleanly in logs; NewStream accepts any
	// int64 either way.
	return int64(h &^ (1 << 63))
}

// mix64 is the SplitMix64 output finalizer (Steele, Lea & Flood 2014).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform draw in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Normal returns a draw from N(mu, sigma^2). Sigma must be non-negative; a
// zero sigma returns mu exactly.
func (r *RNG) Normal(mu, sigma float64) float64 {
	if sigma == 0 {
		return mu
	}
	return mu + sigma*r.src.NormFloat64()
}

// ClampedNormal draws from N(mu, sigma^2) and clamps the result to
// [lo, hi]. This is the paper's λ bounding in §IV-B ("we bound the value
// drawn to the interval [0, 1]"): out-of-range draws collapse onto the
// endpoints, so a wide prior puts point masses at exactly 0 and 1 —
// topics that ignore their source entirely, and topics that follow it
// exactly.
func (r *RNG) ClampedNormal(mu, sigma, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	return mathx.Clamp(r.Normal(mu, sigma), lo, hi)
}

// TruncatedNormal returns a draw from N(mu, sigma^2) conditioned on the
// closed interval [lo, hi], using rejection with a clamping fallback after
// maxTries attempts.
func (r *RNG) TruncatedNormal(mu, sigma, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	if sigma == 0 {
		return mathx.Clamp(mu, lo, hi)
	}
	const maxTries = 256
	for i := 0; i < maxTries; i++ {
		x := r.Normal(mu, sigma)
		if x >= lo && x <= hi {
			return x
		}
	}
	return mathx.Clamp(r.Normal(mu, sigma), lo, hi)
}

// Gamma returns a draw from the Gamma distribution with the given shape and
// scale parameters, using the Marsaglia–Tsang squeeze method, with the
// standard shape-boosting transform for shape < 1. Shape and scale must be
// positive.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) and U ~ U(0,1) then
		// X * U^(1/shape) ~ Gamma(shape).
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Dirichlet fills out with a draw from Dirichlet(alpha). The output slice
// must have the same length as alpha. Entries of alpha must be positive.
func (r *RNG) Dirichlet(alpha []float64, out []float64) {
	if len(alpha) != len(out) {
		panic("rng: Dirichlet output length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		g := r.Gamma(a, 1)
		out[i] = g
		sum += g
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		// Degenerate draw (all-tiny alphas can underflow); fall back to a
		// uniform draw over a single random atom, the limiting behaviour of
		// a symmetric Dirichlet as alpha -> 0.
		for i := range out {
			out[i] = 0
		}
		out[r.Intn(len(out))] = 1
		return
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// DirichletSymmetric fills out with a draw from a symmetric Dirichlet with
// concentration alpha over len(out) atoms.
func (r *RNG) DirichletSymmetric(alpha float64, out []float64) {
	var sum float64
	for i := range out {
		g := r.Gamma(alpha, 1)
		out[i] = g
		sum += g
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		for i := range out {
			out[i] = 0
		}
		out[r.Intn(len(out))] = 1
		return
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// Poisson returns a draw from Poisson(lambda). For small lambda it uses
// Knuth's product method; for large lambda the PTRS-like normal
// approximation with rejection on the discretized tail is replaced by the
// simpler decomposition Poisson(λ) = Poisson(λ-chunk) + Poisson(chunk),
// which keeps the draw exact while avoiding underflow of exp(-λ).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	const chunk = 500.0
	var total int
	for lambda > chunk {
		total += r.poissonKnuth(chunk)
		lambda -= chunk
	}
	return total + r.poissonKnuth(lambda)
}

func (r *RNG) poissonKnuth(lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical returns an index drawn proportionally to the non-negative
// weights. The weights need not be normalized. A degenerate (zero or
// non-finite) total falls back to a uniform draw restricted to the
// positive-weight support — never the whole index range, which could select
// a category whose weight is exactly zero (e.g. a pruned topic). It panics
// when no weight is positive: that is not a samplable distribution.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return r.uniformOverSupport(len(weights), func(i int) float64 { return weights[i] })
	}
	target := r.src.Float64() * total
	var run float64
	for i, w := range weights {
		run += w
		if target < run {
			return i
		}
	}
	return len(weights) - 1
}

// CategoricalCumulative draws an index given inclusive prefix sums cum, whose
// last entry is the total mass. It uses binary search, matching the parallel
// samplers in the paper (Algorithms 2 and 3). Degenerate totals fall back to
// a uniform draw over the indices with a positive increment, exactly as
// Categorical does over positive weights; it panics when there are none.
func (r *RNG) CategoricalCumulative(cum []float64) int {
	total := cum[len(cum)-1]
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return r.uniformOverSupport(len(cum), func(i int) float64 {
			if i == 0 {
				return cum[0]
			}
			return cum[i] - cum[i-1]
		})
	}
	target := r.src.Float64() * total
	return mathx.SearchCumulative(cum, target)
}

// uniformOverSupport draws uniformly among the indices in [0, n) whose
// weight (as reported by weight) is strictly positive — the degenerate-mass
// fallback of Categorical and CategoricalCumulative, sharing
// mathx.SelectPositiveSupport with the parallel sampling kernels so every
// sampler degrades identically. It consumes exactly one source step (like
// the normal path) and panics when the support is empty.
func (r *RNG) uniformOverSupport(n int, weight func(i int) float64) int {
	idx, ok := mathx.SelectPositiveSupport(n, r.src.Float64(), weight)
	if !ok {
		panic("rng: categorical draw over weights with no positive mass")
	}
	return idx
}

// Multinomial distributes n trials over the categories of probs (which must
// be non-negative with at least one positive entry — see Categorical) and
// returns the per-category counts.
func (r *RNG) Multinomial(n int, probs []float64) []int {
	counts := make([]int, len(probs))
	for i := 0; i < n; i++ {
		counts[r.Categorical(probs)]++
	}
	return counts
}

// Zipf returns a draw in [0, n) with P(k) proportional to 1/(k+1)^s. It uses
// inversion over the precomputed harmonic table held by ZipfTable for
// efficiency; this convenience method rebuilds the table each call and is
// intended for one-off draws.
func (r *RNG) Zipf(n int, s float64) int {
	t := NewZipfTable(n, s)
	return t.Draw(r)
}

// ZipfTable caches the cumulative mass function of a Zipf distribution over
// [0, n) with exponent s, for repeated sampling.
type ZipfTable struct {
	cum []float64
}

// NewZipfTable builds the cumulative table for ranks [0, n).
func NewZipfTable(n int, s float64) *ZipfTable {
	cum := make([]float64, n)
	var run float64
	for k := 0; k < n; k++ {
		run += 1 / math.Pow(float64(k+1), s)
		cum[k] = run
	}
	return &ZipfTable{cum: cum}
}

// Draw samples a rank from the table.
func (t *ZipfTable) Draw(r *RNG) int {
	return r.CategoricalCumulative(t.cum)
}

// Probabilities returns the normalized Zipf PMF represented by the table.
func (t *ZipfTable) Probabilities() []float64 {
	out := make([]float64, len(t.cum))
	prev := 0.0
	total := t.cum[len(t.cum)-1]
	for i, c := range t.cum {
		out[i] = (c - prev) / total
		prev = c
	}
	return out
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n) in random order. It panics if k > n.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: SampleWithoutReplacement k > n")
	}
	perm := r.src.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// WeightedSampleWithoutReplacement returns k distinct indices drawn without
// replacement with probability proportional to weights. Indices whose weight
// is exhausted are chosen uniformly once all remaining mass is zero. It
// panics if k > len(weights).
func (r *RNG) WeightedSampleWithoutReplacement(weights []float64, k int) []int {
	n := len(weights)
	if k > n {
		panic("rng: WeightedSampleWithoutReplacement k > n")
	}
	w := make([]float64, n)
	copy(w, weights)
	taken := make([]bool, n)
	out := make([]int, 0, k)
	for len(out) < k {
		var total float64
		for i, wi := range w {
			if !taken[i] {
				total += wi
			}
		}
		var idx int
		if total > 0 {
			target := r.src.Float64() * total
			var run float64
			idx = -1
			for i, wi := range w {
				if taken[i] {
					continue
				}
				run += wi
				if target < run {
					idx = i
					break
				}
			}
			if idx < 0 { // numeric edge: fall through to last untaken
				for i := n - 1; i >= 0; i-- {
					if !taken[i] {
						idx = i
						break
					}
				}
			}
		} else {
			// All remaining mass zero: uniform over the untaken indices.
			remaining := make([]int, 0, n-len(out))
			for i := range w {
				if !taken[i] {
					remaining = append(remaining, i)
				}
			}
			idx = remaining[r.Intn(len(remaining))]
		}
		taken[idx] = true
		out = append(out, idx)
	}
	return out
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }
