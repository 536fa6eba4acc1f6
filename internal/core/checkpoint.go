package core

import (
	"fmt"
	"time"

	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
)

// Checkpoint is a complete snapshot of a chain's mutable state at a sweep
// boundary. Together with the corpus, knowledge source and Options the chain
// was built from — none of which a checkpoint stores — it reconstructs a
// live Model via Restore such that continuing for the remaining sweeps is
// bit-for-bit identical to a run that was never interrupted, in both the
// sequential and document-sharded sweep modes.
//
// Only genuinely mutable state is captured. The count slabs are rebuilt from
// the per-token assignments (they are a pure function of Z and the corpus),
// and the δ^g(λ) quadrature values are rebuilt from the knowledge source, so
// a checkpoint's size is dominated by one int32 per corpus token.
//
// The identity fields (Seed, OptionsDigest, dimension counts, DocLengths)
// exist so Restore can refuse a checkpoint that was written under a
// different corpus, source, or chain configuration instead of silently
// producing a chain that neither run describes.
type Checkpoint struct {
	// Sweep is the number of completed sweeps (the global 1-based index of
	// the last finished sweep).
	Sweep int
	// Seed is the chain seed the checkpoint was captured under.
	Seed int64
	// OptionsDigest fingerprints every chain-shaping option (Options.chainDigest).
	OptionsDigest uint64
	// NumFreeTopics (K), NumSourceTopics (S), VocabSize (V) and NumDocs (D)
	// pin the model dimensions.
	NumFreeTopics   int
	NumSourceTopics int
	VocabSize       int
	NumDocs         int
	// DocLengths[d] is the token count of document d; it both validates the
	// corpus identity and delimits documents inside the flat Z vector.
	DocLengths []int32
	// Z holds every token's topic assignment, documents concatenated in
	// corpus order.
	Z []int32
	// LambdaWeights is the flattened (topic, quadrature-node) λ posterior
	// weight matrix of the source topics (S × P, node fastest).
	LambdaWeights []float64
	// Disabled marks topics eliminated by in-inference superset reduction.
	Disabled []bool
	// StreamPos[i] is the number of source steps RNG stream i has consumed;
	// Restore fast-forwards fresh streams to these positions (rng.Skip).
	StreamPos []uint64
	// LikelihoodTrace and IterationTimes carry the per-sweep traces so a
	// resumed run's Result has full-length histories. Restored iteration
	// times are historical wall-clock readings: they are the one Result
	// field that is not bit-reproducible across interrupted runs.
	LikelihoodTrace []float64
	IterationTimes  []time.Duration
}

// Checkpoint captures the chain's current state. Call it only between
// sweeps — from a SweepHook, or after Run returns — never concurrently with
// one. The returned snapshot shares nothing with the model and stays valid
// after further sweeps.
func (m *ChainRuntime) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Sweep:           m.sweepCount,
		Seed:            m.opts.Seed,
		OptionsDigest:   m.opts.chainDigest(),
		NumFreeTopics:   m.K,
		NumSourceTopics: m.S,
		VocabSize:       m.V,
		NumDocs:         m.D,
		LambdaWeights:   append([]float64(nil), m.delta.weights...),
		Disabled:        append([]bool(nil), m.disabled...),
		LikelihoodTrace: append([]float64(nil), m.LikelihoodTrace...),
		IterationTimes:  append([]time.Duration(nil), m.IterationTimes...),
	}
	total := 0
	ck.DocLengths = make([]int32, m.D)
	for d, zd := range m.z {
		ck.DocLengths[d] = int32(len(zd))
		total += len(zd)
	}
	ck.Z = make([]int32, 0, total)
	for _, zd := range m.z {
		for _, t := range zd {
			ck.Z = append(ck.Z, int32(t))
		}
	}
	ck.StreamPos = make([]uint64, len(m.streams))
	for i, s := range m.streams {
		ck.StreamPos[i] = s.Pos()
	}
	return ck
}

// Restore reconstructs a live chain from a checkpoint captured on the same
// corpus, knowledge source and chain options. The assignments, count slabs,
// λ posterior weights, pruning flags, sweep counter, traces and RNG stream
// positions all match the capturing model exactly, so RunWithHook for the
// remaining sweeps continues the original chain bit for bit.
//
// Restore validates the checkpoint against its inputs and fails with a
// descriptive error on any mismatch: different dimensions, per-document
// lengths, out-of-range assignments, or a chain-options digest that differs
// from opts (e.g. a changed seed, prior, or sweep mode).
func Restore(c *corpus.Corpus, src *knowledge.Source, opts Options, ck *Checkpoint) (*Model, error) {
	m, err := newUninitializedModel(c, src, opts)
	if err != nil {
		return nil, err
	}
	if err := m.validateCheckpoint(ck); err != nil {
		return nil, err
	}
	i := 0
	for d := range m.z {
		zd := m.z[d]
		words := c.Docs[d].Words
		for j := range zd {
			t := int(ck.Z[i])
			i++
			zd[j] = t
			m.counts.add(d, words[j], t)
		}
	}
	copy(m.delta.weights, ck.LambdaWeights)
	copy(m.disabled, ck.Disabled)
	m.sweepCount = ck.Sweep
	m.LikelihoodTrace = append([]float64(nil), ck.LikelihoodTrace...)
	m.IterationTimes = append([]time.Duration(nil), ck.IterationTimes...)
	// Views cache reciprocal denominators from the counts, λ weights and
	// disabled flags, so they are built only now that all three are restored.
	m.buildViews()
	for s, stream := range m.streams {
		stream.Skip(ck.StreamPos[s])
	}
	return m, nil
}

// validateCheckpoint cross-checks a checkpoint against the freshly-built
// (still empty) model, naming the offending field on mismatch.
func (m *ChainRuntime) validateCheckpoint(ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	if ck.Sweep < 0 {
		return fmt.Errorf("core: checkpoint sweep count %d is negative", ck.Sweep)
	}
	// The CRC in the persist frame is integrity, not authentication, and
	// Restore replays stream positions one source step at a time — so both
	// the sweep count and the positions need magnitude bounds or a crafted
	// (or badly corrupted) checkpoint could make resume spin for centuries
	// inside rng.Skip with no error.
	if ck.Sweep > maxCheckpointSweeps {
		return fmt.Errorf("core: checkpoint sweep count %d exceeds the %d-sweep limit", ck.Sweep, maxCheckpointSweeps)
	}
	if ck.Seed != m.opts.Seed {
		return fmt.Errorf("core: checkpoint was captured with seed %d; Options.Seed is %d", ck.Seed, m.opts.Seed)
	}
	if d := m.opts.chainDigest(); ck.OptionsDigest != d {
		// The digest hashes the kernel, so a checkpoint that differs from
		// the options in the kernel alone names that kernel instead of
		// reporting a bare mismatch; a retired one also wraps
		// ErrRetiredSampler.
		for _, kind := range []SamplerKind{SamplerSerial, SamplerSparse} {
			o := m.opts
			o.Sampler = kind
			if o.chainDigest() == ck.OptionsDigest {
				return fmt.Errorf("core: checkpoint was written under sampler %s, not %s; resume with the sampler the run was started with", kind, m.opts.Sampler)
			}
		}
		for kind, name := range retiredSamplers {
			o := m.opts
			o.Sampler = kind
			if o.chainDigest() == ck.OptionsDigest {
				return fmt.Errorf("core: checkpoint was written under sampler %q: %w", name, ErrRetiredSampler)
			}
		}
		return fmt.Errorf("core: checkpoint chain-options digest %#x does not match the supplied Options (%#x); resume with the options the run was started with", ck.OptionsDigest, d)
	}
	if ck.NumFreeTopics != m.K || ck.NumSourceTopics != m.S {
		return fmt.Errorf("core: checkpoint has %d free + %d source topics; model has %d + %d",
			ck.NumFreeTopics, ck.NumSourceTopics, m.K, m.S)
	}
	if ck.VocabSize != m.V {
		return fmt.Errorf("core: checkpoint vocabulary size %d does not match corpus vocabulary %d", ck.VocabSize, m.V)
	}
	if ck.NumDocs != m.D || len(ck.DocLengths) != m.D {
		return fmt.Errorf("core: checkpoint covers %d documents (%d lengths); corpus has %d",
			ck.NumDocs, len(ck.DocLengths), m.D)
	}
	total := 0
	for d, n := range ck.DocLengths {
		if int(n) != len(m.c.Docs[d].Words) {
			return fmt.Errorf("core: checkpoint document %d has %d tokens; corpus document has %d",
				d, n, len(m.c.Docs[d].Words))
		}
		total += int(n)
	}
	if len(ck.Z) != total {
		return fmt.Errorf("core: checkpoint has %d assignments for %d corpus tokens", len(ck.Z), total)
	}
	for i, t := range ck.Z {
		if t < 0 || int(t) >= m.T {
			return fmt.Errorf("core: checkpoint assignment %d is topic %d; model has %d topics", i, t, m.T)
		}
	}
	if want := m.S * m.delta.P; len(ck.LambdaWeights) != want {
		return fmt.Errorf("core: checkpoint has %d λ weights; model expects %d (S=%d topics × P=%d nodes)",
			len(ck.LambdaWeights), want, m.S, m.delta.P)
	}
	if len(ck.Disabled) != m.T {
		return fmt.Errorf("core: checkpoint has %d disabled flags for %d topics", len(ck.Disabled), m.T)
	}
	if want := m.opts.numStreams(m.D); len(ck.StreamPos) != want {
		return fmt.Errorf("core: checkpoint has %d RNG stream positions; this configuration uses %d streams",
			len(ck.StreamPos), want)
	}
	// A stream position can never exceed the draws the chain could have
	// made: roughly one source step per token per sweep for sampling, the
	// same again for prune-time resampling, with generous headroom for the
	// samplers' internal rejection loops and for AppendDocs fold-in (one
	// draw per token to place plus one per fold-in sweep, against a total
	// that already includes the appended tokens). float64 sidesteps
	// overflow; the precision loss is irrelevant at a ×8 margin.
	limit := 8 * (float64(total) + 1) * (float64(ck.Sweep) + 1)
	for i, p := range ck.StreamPos {
		if float64(p) > limit {
			return fmt.Errorf("core: checkpoint stream %d position %d is implausible for %d tokens over %d sweeps",
				i, p, total, ck.Sweep)
		}
	}
	return nil
}

// maxCheckpointSweeps bounds how many completed sweeps a checkpoint may
// claim — far beyond any real chain (the paper's runs are in the
// thousands), but small enough that the stream-position plausibility bound
// it feeds stays meaningful against crafted files.
const maxCheckpointSweeps = 1 << 30
