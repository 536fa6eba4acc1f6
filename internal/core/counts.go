package core

import "sourcelda/internal/corpus"

// countStore holds the word side of a Gibbs chain's sufficient statistics as
// two flat int32 slabs, so the per-token hot path touches plain offsets:
//
//	wordTopic[w*T + t]  — tokens of word w assigned to topic t
//	topicTotal[t]       — tokens assigned to topic t (Σ_w wordTopic)
//
// Rows are laid out with the topic index fastest so the inner loop of the
// collapsed conditional — "for every topic t, given this token's word" —
// walks the count row with unit stride. int32 halves memory bandwidth
// against int; a single topic would need 2^31 assigned tokens to overflow,
// far beyond what fits in memory.
//
// Document-topic counts are not stored. A draw reads only the current
// document's row, which each gibbsView rebuilds from that document's
// assignments on entry (setDoc), and Theta and TopicDocumentFrequencies count
// from the assignments too. The store's size therefore depends only on V and
// T, however many documents the chain holds or appends.
type countStore struct {
	T          int
	wordTopic  []int32
	topicTotal []int32
}

func newCountStore(V, T int) *countStore {
	return &countStore{
		T:          T,
		wordTopic:  make([]int32, V*T),
		topicTotal: make([]int32, T),
	}
}

// wordRow returns the T-length counts of word w, one entry per topic.
func (cs *countStore) wordRow(w int) []int32 {
	return cs.wordTopic[w*cs.T : (w+1)*cs.T : (w+1)*cs.T]
}

// add counts one token of word w under topic t.
func (cs *countStore) add(w, t int) {
	cs.wordTopic[w*cs.T+t]++
	cs.topicTotal[t]++
}

// rebuildFromAssignments recomputes wordTopic and topicTotal from the
// per-token assignments — the shard-barrier reconciliation of the sharded
// sweep mode.
func (cs *countStore) rebuildFromAssignments(docs []*corpus.Document, z [][]int) {
	clear(cs.wordTopic)
	clear(cs.topicTotal)
	for d := range docs {
		zd := z[d]
		for i, w := range docs[d].Words {
			cs.add(w, zd[i])
		}
	}
}
