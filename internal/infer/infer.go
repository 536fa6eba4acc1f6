package infer

import (
	"errors"
	"math"
	"sync"

	"sourcelda/internal/core"
	"sourcelda/internal/mathx"
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

// scratch is one call's working state, reused across calls through
// Engine.scratch. The T-length vectors are sized at first use; known and z
// grow to the longest document seen.
type scratch struct {
	r     *rng.RNG
	known []int
	z     []int
	nd    []int32   // n_{d,t}
	nda   []float64 // n_{d,t} + α, kept in step with nd
	cum   []float64 // running sum of the current token's weights
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
			nda: make([]float64, T),
			cum: make([]float64, T),
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
	nd, nda, cum := s.nd, s.nda, s.cum
	clear(nd)
	if cap(s.z) < len(known) {
		s.z = make([]int, len(known))
	}
	z := s.z[:len(known)]

	// Initialize each token from its word conditional alone — the same
	// prior-informed start the training chain uses, so a conforming document
	// begins near its posterior instead of at uniform noise.
	for i, w := range known {
		t := r.Categorical(f.Cond(w))
		z[i] = t
		nd[t]++
	}
	for t := range nda {
		nda[t] = float64(nd[t]) + alpha
	}

	theta := make([]float64, f.T)
	den := float64(len(known)) + float64(f.T)*alpha
	sweeps := e.burnIn + e.samples
	for sweep := 0; sweep < sweeps; sweep++ {
		for i, w := range known {
			old := z[i]
			nd[old]--
			nda[old] = float64(nd[old]) + alpha
			t := drawTopic(r, f.Cond(w), nda, cum)
			z[i] = t
			nd[t]++
			nda[t] = float64(nd[t]) + alpha
		}
		if sweep >= e.burnIn {
			for t, v := range nda {
				theta[t] += v / den
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

// drawTopic samples a topic with weights row[t]·nda[t] in one pass over T:
// it fills cum with their running sum and binary-searches u·total, the
// draw core's dense kernel makes. The sum adds the same products in the
// same order rng.Categorical would, and the search lands on the index its
// linear scan would, so the choice is bit-identical to rng.Categorical over
// the filled weights. A non-positive or non-finite total re-fills the
// weights and hands them to rng.Categorical, whose restricted-support
// fallback then applies. Either way the draw consumes exactly one variate.
func drawTopic(r *rng.RNG, row, nda, cum []float64) int {
	nda, cum = nda[:len(row)], cum[:len(row)]
	var run float64
	for t, p := range row {
		// The explicit conversion rounds the product before the add, so
		// no platform fuses the two into an FMA and changes the bits.
		run += float64(p * nda[t])
		cum[t] = run
	}
	if run > 0 && !math.IsNaN(run) && !math.IsInf(run, 0) {
		return mathx.SearchCumulative(cum, r.Float64()*run)
	}
	for t, p := range row {
		cum[t] = p * nda[t]
	}
	return r.Categorical(cum)
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
