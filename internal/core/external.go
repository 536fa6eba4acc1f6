package core

import "fmt"

// Distributed AD-LDA support (Newman et al.): in a multi-worker run each
// worker owns a contiguous document shard and samples against the merged
// GLOBAL topic-word counts — its own tokens' counts plus everything the
// other shards contributed at the last sync boundary. This file is the core
// half of that contract: an external-counts overlay a coordinator installs
// between epochs, and the own-counts accessor it reads deltas from.
//
// The overlay is deliberately invisible to the sampling kernels. The live
// wordTopic/topicTotal slabs simply hold own + external, and every bulk
// rebuild (the sharded sweep barrier) re-adds the overlay on top of the
// assignment-derived own counts. Document-topic counts are never overlaid:
// each worker derives its documents' rows from its own assignments, exactly
// as shards do within one process.
//
// When the overlay is zero — one worker, or a chain that never saw
// SetGlobalCounts — the slabs hold exactly the serial chain's values, so a
// single-worker distributed run is bit-identical to the serial chain.

// externalCounts is the other-shards contribution currently folded into the
// live count slabs.
type externalCounts struct {
	wordTopic  []int32 // V×T, topic fastest — mirrors countStore.wordTopic
	topicTotal []int32 // T — per-topic sums of wordTopic
}

// SetGlobalCounts installs merged global topic-word counts (flat V×T, topic
// index fastest, the layout of Checkpoint.Z's companion slabs) as the
// chain's sampling basis. The chain's own contribution is recomputed from
// its assignments; the difference global − own becomes the external overlay.
// Call it only between sweeps, never concurrently with one.
//
// Every entry of global must be ≥ the chain's own count for that (word,
// topic) pair — true by construction when global is the sum of all workers'
// own counts at the boundary this worker last reported. A violation means
// the caller merged counts from a different epoch than the chain is at; the
// chain's counts are left in an unspecified state and the chain must be
// abandoned.
func (m *ChainRuntime) SetGlobalCounts(global []int32) error {
	if len(global) != m.V*m.T {
		return fmt.Errorf("core: global counts have %d entries; model expects %d (V=%d × T=%d)", len(global), m.V*m.T, m.V, m.T)
	}
	if m.ext == nil {
		m.ext = &externalCounts{
			wordTopic:  make([]int32, m.V*m.T),
			topicTotal: make([]int32, m.T),
		}
	}
	// Own contribution, fresh from the assignments.
	m.counts.rebuildFromAssignments(m.c.Docs, m.z)
	ext := m.ext
	clear(ext.topicTotal)
	wt := m.counts.wordTopic
	for i, g := range global {
		e := g - wt[i]
		if e < 0 {
			return fmt.Errorf("core: global count %d for word %d topic %d is below this chain's own count %d — counts merged at a different epoch than the chain is at", g, i/m.T, i%m.T, wt[i])
		}
		ext.wordTopic[i] = e
		ext.topicTotal[i%m.T] += e
	}
	copy(wt, global)
	for t, e := range ext.topicTotal {
		m.counts.topicTotal[t] += e
	}
	// The slabs were bulk-overwritten under the sequential view: refresh its
	// cached denominators, and its sparse nonzero lists eagerly (sequential
	// sweeps draw through them immediately; shard views re-copy and rebuild
	// at their own sweep barrier).
	m.seq.rebuildDenoms()
	if m.seq.sparse != nil {
		m.seq.sparse.rebuildLists()
	}
	return nil
}

// rebuildCounts is the bulk count reconciliation: own counts are rebuilt
// from the assignments and the external overlay, if any, is re-added on top.
// The sharded sweep barrier uses it in place of a bare rebuildFromAssignments
// so multi-shard sweeps inside a distributed worker don't drop the overlay.
func (m *ChainRuntime) rebuildCounts() {
	m.counts.rebuildFromAssignments(m.c.Docs, m.z)
	if m.ext == nil {
		return
	}
	wt := m.counts.wordTopic
	for i, e := range m.ext.wordTopic {
		wt[i] += e
	}
	for t, e := range m.ext.topicTotal {
		m.counts.topicTotal[t] += e
	}
}

// OwnWordTopicCounts returns a fresh copy of the chain's own topic-word
// counts — the contribution of this chain's tokens only, excluding any
// external overlay — as a flat V×T slab, topic index fastest. Subtracting
// two snapshots taken at consecutive sync boundaries yields exactly the
// count delta this worker's sweeps produced between them.
func (m *ChainRuntime) OwnWordTopicCounts() []int32 {
	own := make([]int32, len(m.counts.wordTopic))
	copy(own, m.counts.wordTopic)
	if m.ext != nil {
		for i, e := range m.ext.wordTopic {
			own[i] -= e
		}
	}
	return own
}
