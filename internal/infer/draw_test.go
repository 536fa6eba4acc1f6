package infer

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sourcelda/internal/rng"
)

// piece is one interval of the draw's u → topic map, in u ∈ [0, 1).
type piece struct {
	end   float64
	topic int
}

// layout lays weights out as consecutive intervals of [0, 1) in the given
// topic order, skipping zero weights.
func layout(out []piece, start, total float64, topics []int, weight func(k int) float64) ([]piece, float64) {
	for k, t := range topics {
		if p := weight(k); p > 0 {
			start += p / total
			out = append(out, piece{start, t})
		}
	}
	return out, start
}

// checkMap evaluates pick at both ends, the middle and random points of
// every interval of want (leaving δ at each boundary for rounding) and
// fails on the first u whose topic differs. Since the intervals partition
// [0, 1), agreement everywhere but within δ of the ≤ 2T+1 boundaries bounds
// each topic's measure under pick to its length in want within 2(2T+1)δ.
func checkMap(t *testing.T, want []piece, r *rng.RNG, pick func(u float64) int) {
	t.Helper()
	const delta = 1e-13
	// find returns the index of the interval holding u.
	find := func(u float64) int {
		i, _ := slices.BinarySearchFunc(want, u, func(p piece, u float64) int {
			if p.end <= u {
				return -1
			}
			return 1
		})
		return min(i, len(want)-1)
	}
	probe := func(u float64) {
		if got, w := pick(u), want[find(u)].topic; got != w {
			t.Fatalf("u=%.17g draws topic %d, want %d", u, got, w)
		}
	}
	lo := 0.0
	for _, p := range want {
		if p.end-lo > 2*delta {
			probe(lo + delta)
			probe((lo + p.end) / 2)
			probe(p.end - delta)
		}
		lo = p.end
	}
	for i := 0; i < 2000; i++ {
		u := r.Float64()
		k := find(u)
		if want[k].end-u > delta && (k == 0 || u-want[k-1].end > delta) {
			probe(u)
		}
	}
}

// randomState fills a T-topic row and a document-topic state in s the way a
// sweep leaves them: a random walk of increments and decrements over the
// live list, ending with one topic whose count has just fallen to 0. Some
// columns are zero (pruned topics) and, when T spans two blocks, so is one
// whole block.
func randomState(r *rng.RNG, s *scratch, T int) (row []float64) {
	row = make([]float64, T)
	for t := range row {
		if r.Intn(5) > 0 {
			row[t] = math.Exp(-8 * r.Float64())
		}
	}
	if nb := (T + blockSize - 1) / blockSize; nb > 1 {
		b := r.Intn(nb)
		clear(row[b*blockSize : min((b+1)*blockSize, T)])
	}
	clear(s.nd)
	s.live = s.live[:0]
	var tokens []int
	for i := 0; i < 200; i++ {
		if len(tokens) > 0 && r.Intn(3) == 0 {
			k := r.Intn(len(tokens))
			s.dec(tokens[k])
			tokens = slices.Delete(tokens, k, k+1)
			continue
		}
		// Half the moves stay among a few topics, so counts above 1 occur
		// at every T.
		t := r.Intn(T)
		if r.Intn(2) == 0 {
			t = r.Intn(min(T, 40))
		}
		s.inc(t)
		tokens = append(tokens, t)
	}
	// One topic whose only token just left, as the sweep's decrement leaves
	// the current token's old topic before its draw.
	t := r.Intn(T)
	for s.nd[t] > 0 {
		s.dec(t)
	}
	s.inc(t)
	s.dec(t)
	return row
}

// TestDrawIntervalsOracle checks the two-bucket draw against the dense
// weights it replaces, at block-boundary topic counts: over random rows and
// document states, the map from the draw's one uniform u to a topic must
// split [0, 1) into intervals whose lengths are the dense probabilities
// row[t]·(n_{d,t}+α) / Σ within 1e-9 — the live topics' document weights
// first, in live-list order, then the smoothing bucket in topic order. The
// init draw from the row alone is checked the same way, and the live list
// must hold exactly the topics with a positive count.
func TestDrawIntervalsOracle(t *testing.T) {
	for _, T := range []int{1, 31, 32, 33, 100, 1032} {
		t.Run(fmt.Sprintf("T=%d", T), func(t *testing.T) {
			r := rng.New(int64(T))
			nb := (T + blockSize - 1) / blockSize
			s := &scratch{nd: make([]int32, T), pos: make([]int32, T), w: make([]float64, T)}
			blk := make([]float64, nb)
			for trial := 0; trial < 20; trial++ {
				row := randomState(r, s, T)
				alpha := []float64{0.01, 0.3, 4}[trial%3]
				mass := sumBlocks(row, blk)
				if mass == 0 {
					continue
				}

				var positive []int
				for topic, c := range s.nd {
					if c > 0 {
						positive = append(positive, topic)
					}
				}
				live := make([]int, len(s.live))
				for k, topic := range s.live {
					live[k] = int(topic)
				}
				if sorted := slices.Sorted(slices.Values(live)); !slices.Equal(sorted, positive) {
					t.Fatalf("live list %v, want the topics with a positive count %v", sorted, positive)
				}

				// The dense probabilities, and the two-bucket layout.
				dense := make([]float64, T)
				var sum float64
				for topic, p := range row {
					dense[topic] = p * (float64(s.nd[topic]) + alpha)
					sum += dense[topic]
				}
				docWeight := func(k int) float64 { return row[live[k]] * float64(s.nd[live[k]]) }
				var docMass float64
				for k := range live {
					docMass += docWeight(k)
				}
				total := docMass + alpha*mass
				topics := make([]int, T)
				for topic := range topics {
					topics[topic] = topic
				}
				want, end := layout(nil, 0, total, live, docWeight)
				want, end = layout(want, end, total, topics, func(k int) float64 { return alpha * row[k] })
				if math.Abs(end-1) > 1e-12 {
					t.Fatalf("layout covers [0, %v)", end)
				}
				length := make([]float64, T)
				lo := 0.0
				for _, p := range want {
					length[p.topic] += p.end - lo
					lo = p.end
				}
				for topic := range dense {
					if d := math.Abs(length[topic] - dense[topic]/sum); d > 1e-9 {
						t.Fatalf("topic %d: interval length %v, dense probability %v", topic, length[topic], dense[topic]/sum)
					}
				}

				doc := s.weighDoc(row)
				smooth := alpha * mass
				checkMap(t, want, r, func(u float64) int {
					return s.pick(row, blk, doc, alpha, u*(doc+smooth))
				})

				// The init draw: the row alone, in topic order.
				prior, _ := layout(nil, 0, mass, topics, func(k int) float64 { return row[k] })
				checkMap(t, prior, r, func(u float64) int { return pickBlocks(row, blk, u*mass) })
			}
		})
	}
}
