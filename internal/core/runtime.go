package core

import (
	"fmt"
	"time"

	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/parallel"
	"sourcelda/internal/rng"
)

// ChainRuntime is the mutable state of one Source-LDA collapsed Gibbs chain:
// count slabs, per-token assignments, λ-quadrature state, sampling views and
// deterministic RNG streams. It is the single source of truth every chain
// mutation drives — full training sweeps (Model.Run), prune-time resampling,
// checkpoint capture/restore, AND the incremental AppendDocs path that folds
// streamed documents into a warm chain — so a served model can keep learning
// after training instead of being a one-way export.
//
// The read side is Freeze: a frozen conditional slab snapshotted from the
// runtime's current counts, which internal/infer scores against while the
// runtime continues to mutate. Snapshot-then-mutate replaces the old
// train-once/serve-forever split: the same counts that answered the last
// inference request absorb the next streamed document.
//
// A ChainRuntime is NOT safe for concurrent mutation: sweeps, AppendDocs and
// Checkpoint must be serialized by the caller (the facade's Runtime wrapper
// does this with one mutex).
type ChainRuntime struct {
	opts Options
	c    *corpus.Corpus
	src  *knowledge.Source
	r    *rng.RNG

	// K free topics occupy indices [0, K); the S = src.Len() source topics
	// occupy [K, T). T = K + S.
	K, S, T int
	V, D    int

	// counts holds the flat word-topic / document-topic slabs; z the
	// per-token assignments ([D][tokens]).
	counts *countStore
	z      [][]int
	// delta holds the precomputed λ-quadrature state of the source topics.
	delta *deltaStore

	// pool runs the shards of SweepShardedDocs, Options.Threads at a time;
	// nil for a sequential chain, which starts no goroutines.
	pool       *parallel.Pool
	sweepCount int
	// disabled marks topics eliminated by in-inference superset reduction
	// (§III-C3); disabled topics sample with probability zero.
	disabled []bool

	// seq is the sampling view over the global count slabs used by the
	// sequential sweep mode, token resampling during pruning, and AppendDocs.
	seq *gibbsView
	// streams are the deterministic RNG streams tokens draw from: stream 0
	// for sequential sweeps (plus pruning and AppendDocs), stream i for
	// document shard i.
	streams []*rng.RNG
	// shards are the per-shard working states of SweepShardedDocs.
	shards []*shardView

	// ext is the distributed-training overlay: topic-word counts contributed
	// by other workers' shards, installed by SetGlobalCounts and re-added at
	// every bulk count rebuild. Nil outside distributed training.
	ext *externalCounts

	// LikelihoodTrace holds the collapsed joint log-likelihood per sweep
	// when tracing is enabled.
	LikelihoodTrace []float64
	// IterationTimes holds per-sweep wall-clock durations (Fig. 8(f)).
	IterationTimes []time.Duration
}

// NumDocs returns the number of documents the chain currently covers,
// including documents folded in by AppendDocs.
func (m *ChainRuntime) NumDocs() int { return m.D }

// AppendDocs folds new documents into the warm chain: each document is
// appended to the corpus, its tokens are initialized from the current
// conditionals, and foldInSweeps in-place Gibbs sweeps over just that
// document refine its assignments against the live global counts — real
// count updates, not the read-only fold-in of internal/infer. Word ids must
// already be interned in the training vocabulary (ids in [0, V)); callers
// drop out-of-vocabulary tokens first, exactly as serving inference does.
//
// The initialization draw for a token of word w samples topics proportional
// to α·Cond(w) — the same distribution internal/infer's estimator starts
// from — because the new document's topic counts are all zero at that point.
// AppendDocs is therefore the literal promotion of fold-in inference into
// count updates: identical first draw, but the result is written back into
// the chain instead of discarded.
//
// Determinism: every draw consumes exactly one uniform from stream 0 (the
// sequential/pruning stream, whose position checkpoints capture), and
// documents are processed strictly one at a time — grow, initialize, fold
// in, then the next — so appending N documents in one call is bit-identical
// to N single-document calls, and append → Checkpoint → Restore round-trips
// exactly.
//
// foldInSweeps must be ≥ 0; 0 means initialization only. Empty documents are
// rejected — callers that filter out-of-vocabulary tokens must also drop
// documents left with no tokens.
func (m *ChainRuntime) AppendDocs(docs []*corpus.Document, foldInSweeps int) error {
	if foldInSweeps < 0 {
		return fmt.Errorf("core: fold-in sweep count %d is negative", foldInSweeps)
	}
	for n, doc := range docs {
		if doc == nil {
			return fmt.Errorf("core: appended document %d is nil", n)
		}
		if len(doc.Words) == 0 {
			return fmt.Errorf("core: appended document %d has no tokens", n)
		}
		for _, w := range doc.Words {
			if w < 0 || w >= m.V {
				return fmt.Errorf("core: appended document %d has word id %d outside the training vocabulary (size %d)", n, w, m.V)
			}
		}
	}
	v := m.seq
	if v.sparse != nil && v.sparse.listsStale {
		// Multi-shard sweeps leave the sequential view's nonzero lists stale
		// at the barrier; appends draw through them, so refresh first —
		// exactly as prune-time resampling does.
		v.sparse.rebuildLists()
	}
	r := m.streams[0]
	for _, doc := range docs {
		if v.sparse != nil {
			// Pin the accumulated bucket totals to their canonical
			// recomputation before every document, the same boundary resync
			// sweeps perform: a chain restored from a checkpoint rebuilds the
			// totals fresh, so without this pin the restored chain's next
			// append could diverge in float accumulation order — and a batched
			// append would diverge from one-at-a-time calls.
			v.sparse.resyncTotals()
		}
		d := m.D
		m.c.AddDocument(doc)
		m.counts.appendDoc(len(doc.Words))
		m.D++
		zd := make([]int, len(doc.Words))
		m.z = append(m.z, zd)
		v.setDoc(m.counts.docRow(d))
		// Initialization: place each token with the full dec→draw→inc
		// protocol minus the dec (there is no previous assignment to remove).
		// With the document row still empty, fill's conditional reduces to
		// α·Cond(w) per topic — the frozen estimator's starting distribution.
		for i, w := range doc.Words {
			v.setToken(w)
			zd[i] = v.draw(r.Float64())
			v.inc(zd[i])
		}
		// Fold-in: in-place Gibbs over just this document against the live
		// global counts, the warm-update analogue of a training sweep.
		for s := 0; s < foldInSweeps; s++ {
			for i, w := range doc.Words {
				v.resample(zd, i, w, r)
			}
		}
	}
	m.rebalanceShards()
	return nil
}

// rebalanceShards re-partitions the document shards after the corpus grew.
// Shard views hold no per-document state between sweeps (non-aliasing views
// re-copy the global slabs at every sweep barrier), so updating the [lo, hi)
// ranges in place is sufficient while the stream count is unchanged. The
// count can only grow when the original corpus was smaller than the
// configured shard count (numStreams caps at D); new streams start fresh at
// position 0, which is deterministic regardless of how appends were batched.
func (m *ChainRuntime) rebalanceShards() {
	if m.opts.SweepMode != SweepShardedDocs || len(m.shards) == 0 {
		return
	}
	nStreams := m.opts.numStreams(m.D)
	if nStreams == len(m.shards) {
		for i, sh := range m.shards {
			sh.lo, sh.hi = i*m.D/nStreams, (i+1)*m.D/nStreams
		}
		return
	}
	for i := len(m.streams); i < nStreams; i++ {
		m.streams = append(m.streams, rng.NewStream(m.opts.Seed, int64(i)))
	}
	m.buildShards(nStreams)
}

// Source returns the knowledge source the chain was built over.
func (m *ChainRuntime) Source() *knowledge.Source { return m.src }

// Options returns a copy of the chain's effective (defaulted) options.
func (m *ChainRuntime) Options() Options { return m.opts }
