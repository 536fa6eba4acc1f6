package core

import (
	"sort"
	"time"
)

// Result is an immutable snapshot of a fitted model: distributions, labels,
// assignment statistics and traces. It is the hand-off type consumed by the
// labeling and evaluation packages.
type Result struct {
	// Phi[t][w] is the topic-word distribution (Eq. 4 for source topics).
	Phi [][]float64
	// Theta[d][t] is the document-topic distribution (Eq. 1).
	Theta [][]float64
	// Labels[t] names each topic: "topic-<i>" for free topics, the
	// knowledge-source label otherwise.
	Labels []string
	// SourceIndices[t] is the knowledge-source article index for source
	// topics, -1 for free topics.
	SourceIndices []int
	// NumFreeTopics is K.
	NumFreeTopics int
	// Alpha is the symmetric document-topic prior the model was fitted
	// with; fold-in inference on unseen documents reuses it. Zero in
	// snapshots written before the field existed.
	Alpha float64
	// Assignments[d][i] is the final topic of token i of document d, in the
	// model's topic indexing (free topics first).
	Assignments [][]int
	// TokenCounts[t] is the number of tokens assigned to topic t.
	TokenCounts []int
	// DocFrequencies[t] is the number of documents with ≥1 token in t.
	DocFrequencies []int
	// LikelihoodTrace and IterationTimes mirror the model's traces.
	LikelihoodTrace []float64
	IterationTimes  []time.Duration
}

// Result snapshots the current chain state.
func (m *Model) Result() *Result {
	r := &Result{
		Phi:           m.Phi(),
		Labels:        m.Labels(),
		NumFreeTopics: m.K,
		Alpha:         m.opts.Alpha,
		TokenCounts:   m.TokensPerTopic(),
	}
	r.Theta, r.DocFrequencies = m.thetaAndDocFrequencies()
	r.SourceIndices = make([]int, m.T)
	for t := 0; t < m.T; t++ {
		r.SourceIndices[t] = m.SourceIndex(t)
	}
	r.Assignments = make([][]int, m.D)
	for d := range m.z {
		row := make([]int, len(m.z[d]))
		copy(row, m.z[d])
		r.Assignments[d] = row
	}
	r.LikelihoodTrace = append([]float64(nil), m.LikelihoodTrace...)
	r.IterationTimes = append([]time.Duration(nil), m.IterationTimes...)
	return r
}

// NumTopics returns the number of topics in the snapshot.
func (r *Result) NumTopics() int { return len(r.Phi) }

// Reduction maps a full-topic-set Result onto a reduced topic set after
// superset topic reduction (§III-C3).
type Reduction struct {
	// Result is the reduced snapshot: Phi/Theta/Labels cover only surviving
	// topics; Theta rows are renormalized.
	Result *Result
	// OldToNew[t] is the surviving index of original topic t, or -1.
	OldToNew []int
	// Kept lists surviving original indices in order.
	Kept []int
}

// ReduceByDocumentFrequency keeps every free topic and every source topic
// assigned (with at least minTokens tokens) in at least minDocs documents,
// dropping the rest — the document-frequency thresholding the paper applies
// "with the goal of capturing topics that were frequently occurring in the
// corpus" (§III-C3). Assignments retain original indexing; use OldToNew to
// translate.
func (r *Result) ReduceByDocumentFrequency(minDocs, minTokens int) *Reduction {
	if minDocs < 1 {
		minDocs = 1
	}
	T := r.NumTopics()
	df := r.DocFrequencies
	if minTokens > 1 {
		df = docFrequencies(r.Assignments, T, minTokens)
	}
	kept := make([]int, 0, T)
	oldToNew := make([]int, T)
	for t := 0; t < T; t++ {
		if r.SourceIndices[t] < 0 || df[t] >= minDocs {
			oldToNew[t] = len(kept)
			kept = append(kept, t)
		} else {
			oldToNew[t] = -1
		}
	}
	out := &Result{
		NumFreeTopics:   r.NumFreeTopics,
		Assignments:     r.Assignments,
		LikelihoodTrace: r.LikelihoodTrace,
		IterationTimes:  r.IterationTimes,
	}
	out.Phi = make([][]float64, len(kept))
	out.Labels = make([]string, len(kept))
	out.SourceIndices = make([]int, len(kept))
	out.TokenCounts = make([]int, len(kept))
	out.DocFrequencies = make([]int, len(kept))
	for n, t := range kept {
		out.Phi[n] = r.Phi[t]
		out.Labels[n] = r.Labels[t]
		out.SourceIndices[n] = r.SourceIndices[t]
		out.TokenCounts[n] = r.TokenCounts[t]
		out.DocFrequencies[n] = r.DocFrequencies[t]
	}
	out.Theta = make([][]float64, len(r.Theta))
	for d, row := range r.Theta {
		nrow := make([]float64, len(kept))
		var total float64
		for n, t := range kept {
			nrow[n] = row[t]
			total += row[t]
		}
		if total > 0 {
			inv := 1 / total
			for n := range nrow {
				nrow[n] *= inv
			}
		}
		out.Theta[d] = nrow
	}
	return &Reduction{Result: out, OldToNew: oldToNew, Kept: kept}
}

// docFrequencies counts documents with ≥ minTokens tokens per topic.
func docFrequencies(assignments [][]int, T, minTokens int) []int {
	df := make([]int, T)
	counts := make([]int, T)
	for _, doc := range assignments {
		for i := range counts {
			counts[i] = 0
		}
		for _, t := range doc {
			if t >= 0 && t < T {
				counts[t]++
			}
		}
		for t, n := range counts {
			if n >= minTokens {
				df[t]++
			}
		}
	}
	return df
}

// ReduceToK keeps exactly k topics — those with the most assigned tokens —
// and renormalizes every document mixture over them. This is the §III-C3
// guarantee ("the collapsed Gibbs algorithm is guaranteed to produce K
// topics"): after document-frequency elimination the remaining topics are
// reduced to the requested K. If k ≥ the current topic count the snapshot
// is returned unchanged inside a trivial Reduction.
func (r *Result) ReduceToK(k int) *Reduction {
	T := r.NumTopics()
	if k >= T {
		oldToNew := make([]int, T)
		kept := make([]int, T)
		for t := range oldToNew {
			oldToNew[t] = t
			kept[t] = t
		}
		return &Reduction{Result: r, OldToNew: oldToNew, Kept: kept}
	}
	order := make([]int, T)
	for t := range order {
		order[t] = t
	}
	sort.SliceStable(order, func(i, j int) bool {
		return r.TokenCounts[order[i]] > r.TokenCounts[order[j]]
	})
	keep := make(map[int]bool, k)
	for _, t := range order[:k] {
		keep[t] = true
	}
	kept := make([]int, 0, k)
	oldToNew := make([]int, T)
	for t := 0; t < T; t++ {
		if keep[t] {
			oldToNew[t] = len(kept)
			kept = append(kept, t)
		} else {
			oldToNew[t] = -1
		}
	}
	out := &Result{
		NumFreeTopics:   r.NumFreeTopics,
		Assignments:     r.Assignments,
		LikelihoodTrace: r.LikelihoodTrace,
		IterationTimes:  r.IterationTimes,
	}
	out.Phi = make([][]float64, len(kept))
	out.Labels = make([]string, len(kept))
	out.SourceIndices = make([]int, len(kept))
	out.TokenCounts = make([]int, len(kept))
	out.DocFrequencies = make([]int, len(kept))
	for n, t := range kept {
		out.Phi[n] = r.Phi[t]
		out.Labels[n] = r.Labels[t]
		out.SourceIndices[n] = r.SourceIndices[t]
		out.TokenCounts[n] = r.TokenCounts[t]
		out.DocFrequencies[n] = r.DocFrequencies[t]
	}
	out.Theta = make([][]float64, len(r.Theta))
	for d, row := range r.Theta {
		nrow := make([]float64, len(kept))
		var total float64
		for n, t := range kept {
			nrow[n] = row[t]
			total += row[t]
		}
		if total > 0 {
			inv := 1 / total
			for n := range nrow {
				nrow[n] *= inv
			}
		}
		out.Theta[d] = nrow
	}
	return &Reduction{Result: out, OldToNew: oldToNew, Kept: kept}
}

// DiscoveredSourceTopics returns the labels of source topics that survive a
// document-frequency threshold — the paper's "discovered labeled topics"
// count for Table I (Source-LDA discovered 15, CTM 6).
func (r *Result) DiscoveredSourceTopics(minDocs, minTokens int) []string {
	red := r.ReduceByDocumentFrequency(minDocs, minTokens)
	var out []string
	for _, t := range red.Kept {
		if r.SourceIndices[t] >= 0 {
			out = append(out, r.Labels[t])
		}
	}
	return out
}
