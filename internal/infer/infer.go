package infer

import (
	"errors"
	"math"
	"sync"

	"sourcelda/internal/core"
	"sourcelda/internal/parallel"
	"sourcelda/internal/rng"
)

// DefaultBurnIn is the number of discarded initial sweeps per document.
const DefaultBurnIn = 20

// DefaultSamples is the number of post-burn-in sweeps averaged into θ.
const DefaultSamples = 10

// Options configures an inference engine. Zero values take the documented
// defaults.
type Options struct {
	// BurnIn is the number of fold-in Gibbs sweeps discarded before θ
	// estimation: 0 means DefaultBurnIn, a negative value means no burn-in
	// at all (a legitimate minimum-latency schedule that zero cannot
	// express, since zero is the "default" sentinel).
	BurnIn int
	// Samples is the number of post-burn-in sweeps whose θ estimates are
	// averaged (default DefaultSamples; must not be negative, and at least
	// one sample is always taken).
	Samples int
	// Seed is the root seed every per-document stream derives from.
	Seed int64
}

// Document is the inference result for one document.
type Document struct {
	// Theta is the inferred topic mixture over the model's T topics (model
	// topic order, matching Frozen.Labels). Nil when the document has no
	// in-vocabulary tokens — there is nothing to condition on.
	Theta []float64
	// Known and Unknown count the document's in- and out-of-vocabulary
	// tokens. Unknown tokens are skipped, never sampled.
	Known, Unknown int
}

// Engine scores unseen documents against a frozen snapshot of a chain
// runtime (core.Frozen — taken by core.ChainRuntime.Freeze, or rebuilt from
// a persisted bundle). It is immutable after construction and safe for
// concurrent use; per-document scratch state comes from a pool on the
// engine, so a call allocates only the Document and its Theta. The
// runtime the snapshot came from may keep mutating — training sweeps,
// AppendDocs warm updates — without affecting the engine: serve-and-learn
// share one source of truth (the runtime's counts), and the engine reads a
// point-in-time view of it.
type Engine struct {
	f       *core.Frozen
	burnIn  int
	samples int
	seed    int64
	// scratch is held by pointer and its New captures only T: the runtime
	// keeps every used pool reachable for two GC cycles, and an embedded
	// pool would keep a retired engine — and its frozen view — with it.
	scratch *sync.Pool // of *scratch
}

// blockSize is the width of the fixed topic blocks whose per-token sums let
// a smoothing-bucket draw skip to its block: ⌈T/blockSize⌉ sums and one
// block scan, about 2√T steps at T ≈ 1024 instead of a pass over T.
const blockSize = 32

// scratch is one call's working state, reused across calls through
// Engine.scratch. The T-length vectors are sized at first use; the
// per-token vectors grow to the longest document seen.
type scratch struct {
	r      *rng.RNG
	known  []int
	z      []int
	nd     []int32   // n_{d,t}
	live   []int32   // the topics with n_{d,t} > 0, in no particular order
	pos    []int32   // pos[t] is t's index in live while n_{d,t} > 0
	w      []float64 // the document bucket's running sum, or the fallback's T weights
	blocks []float64 // per token: running sums of P(w_i | t) over blocks of topics
}

// NewFromRuntime snapshots a live chain runtime's current conditionals and
// returns an engine over the snapshot. Further mutations of the runtime do
// not affect the engine; snapshot again (republish) to serve them.
func NewFromRuntime(rt *core.ChainRuntime, o Options) (*Engine, error) {
	if rt == nil {
		return nil, errors.New("infer: nil chain runtime")
	}
	return New(rt.Freeze(), o)
}

// New returns an engine over the frozen view.
func New(f *core.Frozen, o Options) (*Engine, error) {
	if f == nil {
		return nil, errors.New("infer: nil frozen model")
	}
	if o.Samples < 0 {
		return nil, errors.New("infer: Samples must be non-negative")
	}
	e := &Engine{f: f, burnIn: o.BurnIn, samples: o.Samples, seed: o.Seed}
	T := f.T
	e.scratch = &sync.Pool{New: func() any {
		return &scratch{
			r:   rng.New(0),
			nd:  make([]int32, T),
			pos: make([]int32, T),
			w:   make([]float64, T),
		}
	}}
	switch {
	case e.burnIn == 0:
		e.burnIn = DefaultBurnIn
	case e.burnIn < 0:
		e.burnIn = 0
	}
	if e.samples == 0 {
		e.samples = DefaultSamples
	}
	return e, nil
}

// NumTopics returns the model's topic count T.
func (e *Engine) NumTopics() int { return e.f.T }

// Labels returns the model's topic labels; do not mutate.
func (e *Engine) Labels() []string { return e.f.Labels }

// Infer folds one document — a token-id stream — into the frozen model and
// returns its topic mixture. Ids outside [0, V) count as unknown and are
// skipped.
func (e *Engine) Infer(words []int) *Document {
	f := e.f
	s := e.scratch.Get().(*scratch)
	defer e.scratch.Put(s)
	known := s.known[:0]
	for _, w := range words {
		if w >= 0 && w < f.V {
			known = append(known, w)
		}
	}
	s.known = known
	doc := &Document{Known: len(known), Unknown: len(words) - len(known)}
	if len(known) == 0 {
		return doc
	}

	r := s.r
	r.ResetStream(e.seed, rng.TokenStream(known))
	alpha := f.Alpha
	n, nb := len(known), (f.T+blockSize-1)/blockSize
	s.z = grow(s.z, n)
	s.blocks = grow(s.blocks, n*nb)
	z, nd := s.z, s.nd
	clear(nd)
	s.live = s.live[:0]

	// Initialize each token from its word conditional alone — the same
	// prior-informed start the training chain uses, so a conforming document
	// begins near its posterior instead of at uniform noise. This pass reads
	// each row once; it keeps the row's running block sums, which are the
	// token's smoothing bucket over α for every later sweep.
	for i, w := range known {
		row, blk := f.Cond(w), s.blocks[i*nb:(i+1)*nb]
		var t int
		if m := sumBlocks(row, blk); m > 0 && !math.IsInf(m, 0) {
			t = pickBlocks(row, blk, r.Float64()*m)
		} else {
			t = r.Categorical(row)
		}
		z[i] = t
		s.inc(t)
	}

	theta := make([]float64, f.T)
	den := float64(n) + float64(f.T)*alpha
	sweeps := e.burnIn + e.samples
	for sweep := 0; sweep < sweeps; sweep++ {
		for i, w := range known {
			s.dec(z[i])
			t := s.draw(f.Cond(w), s.blocks[i*nb:(i+1)*nb], alpha)
			z[i] = t
			s.inc(t)
		}
		if sweep >= e.burnIn {
			for t, c := range nd {
				theta[t] += (float64(c) + alpha) / den
			}
		}
	}

	inv := 1 / float64(e.samples)
	for t := range theta {
		theta[t] *= inv
	}
	doc.Theta = theta
	return doc
}

// grow returns s resized to n, reallocating only when it is too short.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// inc adds one token to topic t, entering t in the live list at its first.
func (s *scratch) inc(t int) {
	s.nd[t]++
	if s.nd[t] == 1 {
		s.pos[t] = int32(len(s.live))
		s.live = append(s.live, int32(t))
	}
}

// dec removes one token from topic t, swapping t out of the live list when
// its count reaches 0.
func (s *scratch) dec(t int) {
	s.nd[t]--
	if s.nd[t] == 0 {
		k, last := s.pos[t], s.live[len(s.live)-1]
		s.live[k], s.pos[last] = last, k
		s.live = s.live[:len(s.live)-1]
	}
}

// draw samples a topic with weights row[t]·(n_{d,t}+α), split into a
// document bucket Σ_{t live} row[t]·n_{d,t} and a smoothing bucket
// α·Σ_t row[t], whose running block sums blk the init pass stored. One
// uniform scaled to the whole total picks the bucket and then the topic. A
// non-positive or non-finite total fills the dense weights and hands them
// to rng.Categorical, whose restricted-support fallback then applies.
// Either way the draw consumes exactly one variate.
func (s *scratch) draw(row, blk []float64, alpha float64) int {
	doc := s.weighDoc(row)
	smooth := float64(alpha * blk[len(blk)-1])
	if total := doc + smooth; total > 0 && !math.IsInf(total, 0) {
		return s.pick(row, blk, doc, alpha, s.r.Float64()*total)
	}
	w := s.w[:len(row)]
	for t, p := range row {
		w[t] = p * (float64(s.nd[t]) + alpha)
	}
	return s.r.Categorical(w)
}

// weighDoc fills w[k] with the document bucket's running sum over
// live[:k+1] and returns the bucket's total.
func (s *scratch) weighDoc(row []float64) float64 {
	w := s.w[:len(s.live)]
	var doc float64
	for k, t := range s.live {
		// The explicit conversion rounds the product before the add, so
		// no platform fuses the two into an FMA and changes the bits.
		doc += float64(row[t] * float64(s.nd[t]))
		w[k] = doc
	}
	return doc
}

// pick maps x ∈ [0, doc+smooth) to a topic: below doc, the live topic whose
// interval of the document bucket's running sum holds x; above it, the
// smoothing bucket's topic for (x−doc)/α. Both search a running sum, in
// which a zero weight adds nothing, so neither lands on a zero-weight topic.
func (s *scratch) pick(row, blk []float64, doc, alpha, x float64) int {
	if x < doc {
		return int(s.live[scan(s.w[:len(s.live)], x)])
	}
	return pickBlocks(row, blk, (x-doc)/alpha)
}

// scan returns the smallest index i with x < cum[i] in the running sum cum,
// or its last index — mathx.SearchCumulative's result. A linear scan of a
// few dozen entries costs less than a binary search's mispredicted
// branches.
func scan(cum []float64, x float64) int {
	i := 0
	for i < len(cum)-1 && cum[i] <= x {
		i++
	}
	return i
}

// sumBlocks stores in blk the running sum of row over its blockSize-wide
// blocks of topics and returns the row's total.
func sumBlocks(row, blk []float64) float64 {
	var total float64
	for b := range blk {
		var sum float64
		for _, p := range row[b*blockSize : min((b+1)*blockSize, len(row))] {
			sum += p
		}
		total += sum
		blk[b] = total
	}
	return total
}

// pickBlocks maps y ∈ [0, total) to the topic whose interval of row's
// running sum holds it: a scan of the running block sums blk finds y's
// block, then a running sum over that block's entries the topic. Rounding
// that carries y past its block's end takes the last positive entry at or
// before it, never a zero-weight topic.
func pickBlocks(row, blk []float64, y float64) int {
	b := scan(blk, y)
	if b > 0 {
		y -= blk[b-1]
	}
	lo, hi := b*blockSize, min((b+1)*blockSize, len(row))
	var run float64
	for t, p := range row[lo:hi] {
		run += p
		if y < run {
			return lo + t
		}
	}
	for t := hi - 1; t > 0; t-- {
		if row[t] > 0 {
			return t
		}
	}
	return 0
}

// InferBatch scores every document concurrently over the pool's workers
// (nil pool or one worker: sequential). Results are positionally aligned
// with docs and bit-for-bit identical to len(docs) independent Infer calls.
func (e *Engine) InferBatch(docs [][]int, pool *parallel.Pool) []*Document {
	out := make([]*Document, len(docs))
	if len(docs) == 0 {
		return out
	}
	if pool == nil || pool.Workers() == 1 || len(docs) == 1 {
		for i, words := range docs {
			out[i] = e.Infer(words)
		}
		return out
	}
	pool.Run(len(docs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = e.Infer(docs[i])
		}
	})
	return out
}
