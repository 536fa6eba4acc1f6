package core

import "math"

// sparseState is the bucket-decomposed sampling state of one gibbsView — the
// SparseLDA trick (Yao, Mimno & McCallum, "Efficient Methods for Topic Model
// Inference on Streaming Document Collections", KDD 2009) extended to
// Source-LDA's quadrature topics, selected with Options.Sampler ==
// SamplerSparse.
//
// For a free topic t < K, Eq. 2's unnormalized mass factors into three
// additive buckets:
//
//	(n_wt + β)(n_dt + α)/(n_t + Vβ) =
//	      αβ/(n_t + Vβ)                  smoothing-only  (cached total)
//	    + β·n_dt/(n_t + Vβ)             document bucket (n_dt > 0 only)
//	    + n_wt·(n_dt + α)/(n_t + Vβ)    word bucket     (n_wt > 0 only)
//
// For a source topic s, Eq. 3's quadrature mass — with each node weight
// pre-divided by its denominator (the view's wInv cache) — factors the same
// way around the per-topic sums W_s = Σ_p wInv_p and
// V_s(w) = Σ_p wInv_p·(δ_w)^{e_p}:
//
//	(n_dt + α)·Σ_p wInv_p·(n_wt + (δ_w)^{e_p}) =
//	      α·V_s(w)                      default-δ bucket: the cached total
//	                                    Σ_s α·D_s over the defaults rows,
//	                                    plus an exact correction summed
//	                                    over the word's CSR support row
//	    + n_dt·V_s(w)                   document bucket (n_dt > 0 only)
//	    + n_wt·W_s·(n_dt + α)           word bucket     (n_wt > 0 only)
//
// Every per-item mass is non-negative — a supported value (δ_w)^e dominates
// the default ε^e because article words carry count+ε ≥ 1+ε mass and the
// exponents live in [0, 1] — so a draw walks the sparse buckets in a fixed
// order and touches O(|doc nnz| + |word nnz| + |sup(w)|·P) state per token
// instead of K + S·P.
//
// The cached totals (freeSmooth, srcSmooth) and per-topic sums (srcW, and
// the view's defMass for D_s) are maintained by refreshTopic in O(1)/O(P)
// per count change, and rebuilt from scratch — together with the word
// nonzero lists — by rebuild at every bulk-change point (view construction,
// the sharded sweep barrier, λ posterior reweighting). The whole structure
// is therefore a pure function of the current count slabs: checkpoint
// restore rebuilds it for free and a resumed sparse chain stays
// bit-identical to an uninterrupted one.
type sparseState struct {
	v *gibbsView

	// freeSmooth = Σ_{t<K} αβ·freeDen[t], the smoothing-only bucket total.
	freeSmooth float64
	// srcSmooth = Σ_s α·defMass[s], the default-δ bucket total before the
	// per-token support correction.
	srcSmooth float64
	// srcW[s] = Σ_p wInv[s·P+p]. Its companion D_s = Σ_p wInv[s·P+p]·
	// defaults[s·P+p] is the view's defMass, shared with the dense kernel.
	srcW []float64

	// wordTopics[w] lists the topics with wordTopic[w·T+t] > 0 in ascending
	// order — the word bucket's iteration set, maintained across the whole
	// slab because words recur across documents.
	wordTopics [][]int32
	// docTopics lists the current document's topics with n_dt > 0 in
	// ascending order — the document bucket's iteration set, rebuilt by
	// setDoc on document entry and maintained per token.
	docTopics []int32

	// listsStale marks wordTopics as out of date with the view's slab. Set
	// at the multi-shard sweep barrier (where the global slab is rebuilt
	// from assignments the sequential view never saw) and cleared by
	// rebuildLists; draws through a stale view must rebuild first.
	listsStale bool

	// Scratch reused across tokens; a view draws one token at a time.
	supVals []float64 // V_s(w) per entry of the current word's support row
	itemT   []int32   // topics of the word+doc bucket items, in scan order
	itemM   []float64 // masses of the word+doc bucket items
}

func newSparseState(v *gibbsView) *sparseState {
	return &sparseState{
		v:          v,
		srcW:       make([]float64, v.S),
		wordTopics: make([][]int32, v.m.V),
		docTopics:  make([]int32, 0, v.T),
	}
}

// refreshSource recomputes source topic s's cached weight sum after its wInv
// row changed and moves the default-δ bucket total by the change in the
// topic's default mass, which the view has already refreshed from oldD.
func (sp *sparseState) refreshSource(s int, oldD float64) {
	v := sp.v
	var w float64
	for _, x := range v.wInv[s*v.P : (s+1)*v.P] {
		w += x
	}
	sp.srcSmooth += v.alpha * (v.defMass[s] - oldD)
	sp.srcW[s] = w
}

// resyncTotals recomputes the two accumulated bucket totals from the cached
// per-topic values. freeSmooth and srcSmooth are otherwise maintained as
// running sums of deltas — a path-dependent float accumulation — while a
// checkpoint-restored view starts from this fresh summation. Resyncing at
// every sweep boundary (O(K + S), negligible) puts the uninterrupted and
// resumed chains on the exact same values, which is what keeps sparse
// resume bit-for-bit identical; it also stops drift from ever growing past
// one sweep. The per-topic inputs themselves (freeDen, defMass) never drift:
// refreshTopic/refreshSource recompute them exactly on every change.
func (sp *sparseState) resyncTotals() {
	v := sp.v
	var fs float64
	for t := 0; t < v.K; t++ {
		fs += v.freeDen[t]
	}
	sp.freeSmooth = v.alpha * v.beta * fs
	var ss float64
	for s := 0; s < v.S; s++ {
		ss += v.defMass[s]
	}
	sp.srcSmooth = v.alpha * ss
}

// rebuildLists re-derives the word nonzero lists from the view's current
// word-topic slab — an O(V·T) scan needed only where the slab was bulk
// overwritten underneath the incremental maintenance: view construction
// (including checkpoint restore) and a shard view's per-sweep slab copy.
// The sequential view in multi-shard mode marks its lists stale at the
// sweep barrier instead (listsStale) and rebuilds lazily when pruning —
// the only consumer of that view's draw — actually needs them.
func (sp *sparseState) rebuildLists() {
	v := sp.v
	T := v.T
	for w := range sp.wordTopics {
		row := v.wordTopic[w*T : (w+1)*T]
		lst := sp.wordTopics[w][:0]
		for t, n := range row {
			if n > 0 {
				lst = append(lst, int32(t))
			}
		}
		sp.wordTopics[w] = lst
	}
	sp.listsStale = false
}

// setDoc rebuilds the document bucket's nonzero-topic list for row.
func (sp *sparseState) setDoc(row []int32) {
	lst := sp.docTopics[:0]
	for t, n := range row {
		if n > 0 {
			lst = append(lst, int32(t))
		}
	}
	sp.docTopics = lst
}

// noteDec maintains the nonzero lists after the current token left topic t:
// the view's count rows are already decremented when this runs.
func (sp *sparseState) noteDec(w, t int) {
	if sp.v.tokenRow[t] == 0 {
		sp.wordTopics[w] = removeTopic(sp.wordTopics[w], int32(t))
	}
	if sp.v.docRow[t] == 0 {
		sp.docTopics = removeTopic(sp.docTopics, int32(t))
	}
}

// noteInc maintains the nonzero lists after the current token joined topic
// t: the view's count rows are already incremented when this runs.
func (sp *sparseState) noteInc(w, t int) {
	if sp.v.tokenRow[t] == 1 {
		sp.wordTopics[w] = insertTopic(sp.wordTopics[w], int32(t))
	}
	if sp.v.docRow[t] == 1 {
		sp.docTopics = insertTopic(sp.docTopics, int32(t))
	}
}

// insertTopic adds t to an ascending topic list (no-op when present).
func insertTopic(lst []int32, t int32) []int32 {
	i := searchTopic(lst, int(t))
	if i < len(lst) && lst[i] == t {
		return lst
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = t
	return lst
}

// removeTopic deletes t from an ascending topic list (no-op when absent).
func removeTopic(lst []int32, t int32) []int32 {
	i := searchTopic(lst, int(t))
	if i >= len(lst) || lst[i] != t {
		return lst
	}
	copy(lst[i:], lst[i+1:])
	return lst[:len(lst)-1]
}

// draw samples the current token's topic from the bucket decomposition with
// uniform variate u. setToken/setDoc must point the view at the token and
// dec must already have removed it from the counts. ok=false reports
// degenerate (zero or non-finite) total mass; the caller falls back to the
// dense kernel so every sampler degrades identically.
func (sp *sparseState) draw(u float64) (topic int, ok bool) {
	v := sp.v
	K, P := v.K, v.P
	alpha, beta := v.alpha, v.beta
	ds := v.m.delta
	sup, base := v.supRow, v.supBase

	// Exact V_s(w) over the word's support row, and the default-δ bucket's
	// correction Σ_{s ∈ sup(w)} α·(V_s(w) − D_s). This is the only P-wide
	// work per token; unsupported topics ride the cached defMass totals.
	if cap(sp.supVals) < len(sup) {
		sp.supVals = make([]float64, len(sup))
	}
	supVals := sp.supVals[:len(sup)]
	var corr float64
	for i := range sup {
		s := int(sup[i])
		wi := v.wInv[s*P : (s+1)*P]
		vals := ds.vals[(base+i)*P : (base+i+1)*P]
		var acc float64
		for p := 0; p < P; p++ {
			acc += wi[p] * vals[p]
		}
		supVals[i] = acc
		corr += acc - v.defMass[s]
	}
	srcAlpha := sp.srcSmooth + alpha*corr

	// Word bucket first, then document bucket: after a few sweeps most of a
	// token's mass sits on topics already using its word, so the selection
	// scan usually terminates within the first few items.
	word := sp.wordTopics[v.curWord]
	if n := len(word) + len(sp.docTopics); cap(sp.itemT) < n {
		sp.itemT = make([]int32, 0, n)
		sp.itemM = make([]float64, 0, n)
	}
	itemT, itemM := sp.itemT[:0], sp.itemM[:0]
	var sparseTotal float64
	for _, t32 := range word {
		t := int(t32)
		nw := float64(v.tokenRow[t])
		nd := float64(v.docRow[t])
		var mass float64
		if t < K {
			mass = nw * (nd + alpha) * v.freeDen[t]
		} else {
			mass = nw * sp.srcW[t-K] * (nd + alpha)
		}
		itemT = append(itemT, t32)
		itemM = append(itemM, mass)
		sparseTotal += mass
	}
	idx := 0
	for _, t32 := range sp.docTopics {
		t := int(t32)
		nd := float64(v.docRow[t])
		var mass float64
		if t < K {
			mass = beta * nd * v.freeDen[t]
		} else {
			s := t - K
			for idx < len(sup) && int(sup[idx]) < s {
				idx++
			}
			V := v.defMass[s]
			if idx < len(sup) && int(sup[idx]) == s {
				V = supVals[idx]
			}
			mass = nd * V
		}
		itemT = append(itemT, t32)
		itemM = append(itemM, mass)
		sparseTotal += mass
	}
	sp.itemT, sp.itemM = itemT, itemM

	total := sparseTotal + srcAlpha + sp.freeSmooth
	if !(total > 0) || math.IsInf(total, 0) {
		return 0, false
	}
	target := u * total
	last := -1
	for i, mass := range itemM {
		if mass <= 0 {
			continue
		}
		last = int(itemT[i])
		target -= mass
		if target < 0 {
			return last, true
		}
	}
	// Default-δ bucket: every source topic at α·V_s(w). Rarely hit — its
	// mass is the α-weighted prior sliver — so the O(S) walk is cold.
	idx = 0
	for s := 0; s < v.S; s++ {
		V := v.defMass[s]
		if idx < len(sup) && int(sup[idx]) == s {
			V = supVals[idx]
			idx++
		}
		if mass := alpha * V; mass > 0 {
			last = K + s
			target -= mass
			if target < 0 {
				return last, true
			}
		}
	}
	// Smoothing-only bucket: every free topic at αβ·freeDen[t]. Also cold.
	ab := alpha * beta
	for t := 0; t < K; t++ {
		if mass := ab * v.freeDen[t]; mass > 0 {
			last = t
			target -= mass
			if target < 0 {
				return last, true
			}
		}
	}
	if last < 0 {
		return 0, false
	}
	// Floating-point slop left a sliver of target after the final bucket;
	// land on the last positive-mass item, matching the dense kernels'
	// clamp to the final cumulative entry.
	return last, true
}

// fillFromBuckets reconstructs the current token's full dense conditional
// strictly from the sparse structures — the cached per-topic sums and the
// nonzero lists — never from a dense count scan. It is the property-test
// oracle proving the bucket decomposition matches gibbsView.fill term for
// term (and that the nonzero lists are exactly the nonzero counts); the
// sampling path never calls it.
func (sp *sparseState) fillFromBuckets(out []float64) {
	v := sp.v
	K, P := v.K, v.P
	alpha, beta := v.alpha, v.beta
	ds := v.m.delta
	sup, base := v.supRow, v.supBase

	srcV := make([]float64, v.S)
	idx := 0
	for s := 0; s < v.S; s++ {
		V := v.defMass[s]
		if idx < len(sup) && int(sup[idx]) == s {
			wi := v.wInv[s*P : (s+1)*P]
			vals := ds.vals[(base+idx)*P : (base+idx+1)*P]
			V = 0
			for p := 0; p < P; p++ {
				V += wi[p] * vals[p]
			}
			idx++
		}
		srcV[s] = V
	}
	ab := alpha * beta
	for t := 0; t < K; t++ {
		out[t] = ab * v.freeDen[t]
	}
	for s, V := range srcV {
		out[K+s] = alpha * V
	}
	for _, t32 := range sp.docTopics {
		t := int(t32)
		nd := float64(v.docRow[t])
		if t < K {
			out[t] += beta * nd * v.freeDen[t]
		} else {
			out[t] += nd * srcV[t-K]
		}
	}
	for _, t32 := range sp.wordTopics[v.curWord] {
		t := int(t32)
		nw := float64(v.tokenRow[t])
		nd := float64(v.docRow[t])
		if t < K {
			out[t] += nw * (nd + alpha) * v.freeDen[t]
		} else {
			out[t] += nw * sp.srcW[t-K] * (nd + alpha)
		}
	}
}
