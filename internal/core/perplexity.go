package core

import (
	"errors"
	"fmt"
	"math"

	"sourcelda/internal/corpus"
	"sourcelda/internal/rng"
)

// HeldOutPerplexity estimates test-set perplexity by latent-variable
// estimation via Gibbs sampling on the held-out documents (§III-C5a): test
// tokens are resampled with the trained chain's counts held fixed,
//
//	P(z̃_i=j) ∝ (n^wi_j + ñ^wi_-i,j + β)/(n^·_j + ñ^·_-i,j + Wβ) · (ñ^di_-i,j + α)/(ñ^di_-i + Kα)
//
// for free topics, and the δ-prior analogue (with λ quadrature) for source
// topics. After burnIn sweeps the remaining sweeps average the held-out θ̃;
// perplexity is exp(−Σ log p(w̃)/Ñ) with p(w̃) = Σ_t θ̃_d,t φ_t,w and φ the
// trained model's Eq. 4 estimate.
//
// iterations ≤ 0 defaults to 50 sweeps. burnIn must be non-negative and
// strictly smaller than the (defaulted) iteration count — a schedule with no
// post-burn-in sweeps has nothing to average and is rejected rather than
// silently rewritten.
func (m *ChainRuntime) HeldOutPerplexity(test *corpus.Corpus, iterations, burnIn int, seed int64) (float64, error) {
	if test == nil || test.NumDocs() == 0 {
		return 0, errors.New("core: empty held-out corpus")
	}
	if test.VocabSize() != m.V {
		return 0, errors.New("core: held-out corpus must share the training vocabulary")
	}
	if iterations <= 0 {
		iterations = 50
	}
	if burnIn < 0 {
		return 0, fmt.Errorf("core: held-out burn-in %d is negative", burnIn)
	}
	if burnIn >= iterations {
		return 0, fmt.Errorf("core: held-out burn-in %d leaves no sampling sweeps out of %d iterations; burnIn must be < iterations", burnIn, iterations)
	}
	theta := m.heldOutTheta(test, iterations, burnIn, seed)

	phi := m.Phi()
	var logSum float64
	var tokens int
	for d, doc := range test.Docs {
		for _, w := range doc.Words {
			var p float64
			for t := 0; t < m.T; t++ {
				p += theta[d][t] * phi[t][w]
			}
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			logSum += math.Log(p)
			tokens++
		}
	}
	if tokens == 0 {
		return 0, errors.New("core: held-out corpus has no tokens")
	}
	return math.Exp(-logSum / float64(tokens)), nil
}

// heldOutTheta runs the held-out Gibbs chain of HeldOutPerplexity (whose
// validated schedule it takes: 0 ≤ burnIn < iterations) and returns θ̃
// averaged over the post-burn-in sweeps. Topics eliminated by §III-C3
// pruning take no part: they receive no initial assignment, sample with
// probability zero and are left out of θ̃'s normalization, so their θ̃ mass is
// exactly 0 rather than a share a "dead" topic soaks up. With nothing pruned
// every draw and every sum is the one the unpruned code made.
func (m *ChainRuntime) heldOutTheta(test *corpus.Corpus, iterations, burnIn int, seed int64) [][]float64 {
	r := rng.New(seed)
	o := &m.opts
	alpha, beta := o.Alpha, o.Beta
	vBeta := float64(m.V) * beta
	enabled := make([]int, 0, m.T)
	for t, off := range m.disabled {
		if !off {
			enabled = append(enabled, t)
		}
	}

	D := test.NumDocs()
	ztil := make([][]int, D)
	ndTil := make([][]int, D)
	ndsumTil := make([]int, D)
	nwTil := make(map[int][]int) // test word-topic counts, sparse over words
	nwsumTil := make([]int, m.T)

	wordCounts := func(w int) []int {
		row, ok := nwTil[w]
		if !ok {
			row = make([]int, m.T)
			nwTil[w] = row
		}
		return row
	}

	// Random initialization of test assignments over the enabled topics.
	for d, doc := range test.Docs {
		ztil[d] = make([]int, len(doc.Words))
		ndTil[d] = make([]int, m.T)
		for i, w := range doc.Words {
			k := enabled[r.Intn(len(enabled))]
			ztil[d][i] = k
			ndTil[d][k]++
			ndsumTil[d]++
			wordCounts(w)[k]++
			nwsumTil[k]++
		}
	}

	// defProb[s] is source topic s's word probability for a word outside its
	// article with no train or held-out tokens in the topic — the per-topic
	// default Phi() uses, here a function of the combined total, so it is
	// refreshed whenever a held-out token enters or leaves the topic.
	ds := m.delta
	P := ds.P
	defProb := make([]float64, m.S)
	refreshDefault := func(t int) {
		if t >= m.K {
			defProb[t-m.K] = ds.defaultProb(t-m.K, float64(int(m.counts.topicTotal[t])+nwsumTil[t]))
		}
	}
	for t := m.K; t < m.T; t++ {
		refreshDefault(t)
	}

	probs := make([]float64, m.T) // disabled entries stay 0
	thetaSum := make([][]float64, D)
	for d := range thetaSum {
		thetaSum[d] = make([]float64, m.T)
	}

	for iter := 0; iter < iterations; iter++ {
		for d, doc := range test.Docs {
			nd := ndTil[d]
			for i, w := range doc.Words {
				old := ztil[d][i]
				nww := wordCounts(w)
				nww[old]--
				nd[old]--
				nwsumTil[old]--
				refreshDefault(old)

				trainW := m.counts.wordRow(w)
				sup, base := ds.wordEntries(w)
				idx := 0
				for _, t := range enabled {
					docPart := float64(nd[t]) + alpha
					combinedW := float64(int(trainW[t]) + nww[t])
					combinedSum := float64(int(m.counts.topicTotal[t]) + nwsumTil[t])
					if t < m.K {
						probs[t] = (combinedW + beta) / (combinedSum + vBeta) * docPart
						continue
					}
					// Walk the word's (ascending) support row in step with
					// the topic loop, as the training kernel does.
					s := t - m.K
					for idx < len(sup) && int(sup[idx]) < s {
						idx++
					}
					switch {
					case idx < len(sup) && int(sup[idx]) == s:
						e := base + idx
						probs[t] = ds.wordProb(s, ds.vals[e*P:(e+1)*P], combinedW, combinedSum) * docPart
					case combinedW == 0:
						probs[t] = defProb[s] * docPart
					default:
						probs[t] = ds.wordProb(s, ds.defaults[s*P:(s+1)*P], combinedW, combinedSum) * docPart
					}
				}
				k := r.Categorical(probs)
				ztil[d][i] = k
				nww[k]++
				nd[k]++
				nwsumTil[k]++
				refreshDefault(k)
			}
		}
		if iter >= burnIn {
			tAlpha := float64(len(enabled)) * alpha
			for d := range test.Docs {
				den := float64(ndsumTil[d]) + tAlpha
				for _, t := range enabled {
					thetaSum[d][t] += (float64(ndTil[d][t]) + alpha) / den
				}
			}
		}
	}
	// Normalize θ̃ once: burnIn < iterations guarantees at least one sample,
	// and the per-token scoring loop then reads plain averages instead of
	// dividing inside its inner loop.
	inv := 1 / float64(iterations-burnIn)
	for d := range thetaSum {
		for t := range thetaSum[d] {
			thetaSum[d][t] *= inv
		}
	}
	return thetaSum
}
