package core

import (
	"slices"
	"testing"

	"sourcelda/internal/corpus"
	"sourcelda/internal/oracle"
)

// heldOutConditional is the per-token conditional heldOutTheta samples for
// one held-out document: Eq. 2/3 over the chain's training counts plus the
// held-out document's own word-topic counts, and zero on the chain's
// disabled topics. With withHeldOut false the held-out word-topic counts are
// left out, which gives a wrong law the check must tell apart.
func heldOutConditional(ot *oracleTarget, m *Model, words []int, withHeldOut bool) func(z []int, i int, out []float64) {
	var train []int
	for _, zd := range m.z {
		train = append(train, zd...)
	}
	trainW, _, trainT := ot.counts(train, -1)
	disabled := m.DisabledTopics()
	return func(z []int, i int, out []float64) {
		w := words[i]
		nw, nt := slices.Clone(trainW[w]), slices.Clone(trainT)
		nd := make([]float64, ot.T)
		for j, t := range z {
			if j == i {
				continue
			}
			nd[t]++
			if withHeldOut {
				nt[t]++
				if words[j] == w {
					nw[t]++
				}
			}
		}
		var sum float64
		for t := range out {
			out[t] = 0
			if !disabled[t] {
				out[t] = ot.wordLik(w, t, nw[t], nt[t]) * (nd[t] + ot.alpha)
			}
			sum += out[t]
		}
		for t := range out {
			out[t] /= sum
		}
	}
}

// TestHeldOutPerplexityOracle checks the held-out θ̃ that HeldOutPerplexity
// scores with against its exact law. A chain on the oracle corpus is trained
// for a few sweeps and its counts held fixed; the held-out chain's exact law
// is the fixed point of its one-sweep operator, and under it θ̃ must be
// E[(ñ_dt+α)/(Ñ_d+T'α)] over the T' enabled topics. Averaged over seeds,
// heldOutTheta must lie within 5 standard errors of that, and must miss a
// target that leaves the held-out word counts out of the conditional. In the
// pruned case a source topic the chain's own pruning disabled must read
// exactly 0 in every seed.
func TestHeldOutPerplexityOracle(t *testing.T) {
	const seeds, iterations, burnIn = 2000, 60, 10
	c, src := oracleCorpus()
	words := []int{0, 1, 3, 1}
	test := corpus.NewWithVocab(c.Vocab)
	test.AddDocument(&corpus.Document{Words: words})
	for _, k := range []struct {
		name   string
		pruned int
		set    func(*Options)
	}{
		{"unpruned", 0, func(*Options) {}},
		{"pruned", 1, func(o *Options) {
			o.PruneDeadTopics, o.PruneAfter, o.PruneEvery, o.PruneMinDocs, o.PruneMinTokens = true, 3, 10, 2, 1
		}},
	} {
		t.Run(k.name, func(t *testing.T) {
			o := chainOracleOptions(1)
			k.set(&o)
			m, err := NewModel(c, src, o)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			m.Run(5)
			var off []int
			for topic, d := range m.DisabledTopics() {
				if d {
					off = append(off, topic)
				}
			}
			if len(off) != k.pruned {
				t.Fatalf("the chain's pruning disabled topics %v, want %d", off, k.pruned)
			}
			ot := newOracleTarget(t, c, src, o)
			target := func(withHeldOut bool) []float64 {
				marg := oracle.Stationary(t, len(words), ot.T, heldOutConditional(ot, m, words, withHeldOut))
				return oracle.Theta(marg, len(words), ot.T, ot.alpha, m.DisabledTopics())
			}
			sample := func(seed int64) []float64 {
				theta := m.heldOutTheta(test, iterations, burnIn, seed)[0]
				for _, topic := range off {
					if theta[topic] != 0 {
						t.Fatalf("seed %d: disabled topic %d holds θ̃ %v", seed, topic, theta[topic])
					}
				}
				return theta
			}
			oracle.MustHit(t, "held-out θ̃", target(true), seeds, sample)
			if z, _ := oracle.Z(target(false), seeds, sample); z <= oracle.Bound {
				t.Errorf("held-out θ̃ passes a target without the held-out word counts (%.1f standard errors): the check cannot see it", z)
			} else {
				t.Logf("a target without the held-out word counts misses by %.1f standard errors", z)
			}
		})
	}
}
