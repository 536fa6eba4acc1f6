package infer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/rng"
)

// goldenV is the vocabulary of every golden view. Words [0, goldenSupported)
// carry topic support; the rest have rows that are default mass only.
const (
	goldenV         = 48
	goldenSupported = 36
)

// goldenView builds a deterministic frozen view with T topics in the shape a
// high-T Source-LDA model has: every topic supports three words at a real
// probability and gives every other word a small per-topic default mass; one
// topic column (the pruned topic) is zero for every word. inf lists
// (word, topic) cells set to +Inf, which drives the draw's degenerate-total
// fallback whenever that word is sampled.
func goldenView(t testing.TB, T int, alpha float64, inf [][2]int) *core.Frozen {
	t.Helper()
	cond := make([]float64, T*goldenV)
	pruned := T / 2
	for topic := 0; topic < T; topic++ {
		if topic == pruned {
			continue
		}
		def := 1e-6 * (1 + float64(topic%7)/7)
		for w := 0; w < goldenV; w++ {
			cond[w*T+topic] = def
		}
		for k := 0; k < 3; k++ {
			w := (topic*5 + k*11) % goldenSupported
			cond[w*T+topic] = 0.05 + 0.02*float64(k) + 0.001*float64(topic%13)
		}
	}
	for _, c := range inf {
		cond[c[0]*T+c[1]] = math.Inf(1)
	}
	labels := make([]string, T)
	sources := make([]int, T)
	for topic := range labels {
		labels[topic] = fmt.Sprintf("t%d", topic)
		sources[topic] = topic
	}
	f, err := core.FrozenFromCond(cond, T, goldenV, labels, sources, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// goldenDocs returns 20 fixed documents: 20–60-token mixtures of supported
// and default-only words with out-of-vocabulary ids mixed in, plus a few
// edge shapes (one token, a single repeated word, default-only words, and a
// document with no known token at all).
func goldenDocs() [][]int {
	docs := [][]int{
		{7},
		{3, 3, 3, 3, 3, 3, 3, 3},
		{40, 41, 42, 43, 44, 45, 46, 47, 40, 41},
		{-1, goldenV, goldenV + 9},
	}
	r := rng.New(20240531)
	for len(docs) < 20 {
		n := 20 + r.Intn(41)
		doc := make([]int, n)
		for i := range doc {
			switch x := r.Intn(20); {
			case x == 0:
				doc[i] = goldenV + r.Intn(5) // out of vocabulary
			case x < 4:
				doc[i] = goldenSupported + r.Intn(goldenV-goldenSupported)
			default:
				doc[i] = r.Intn(goldenSupported)
			}
		}
		docs = append(docs, doc)
	}
	return docs
}

// thetaDigest hashes every document's counts and the exact bits of its θ.
func thetaDigest(docs []*Document) string {
	h := sha256.New()
	var buf [8]byte
	for _, d := range docs {
		binary.LittleEndian.PutUint64(buf[:], uint64(d.Known)<<32|uint64(d.Unknown))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(d.Theta)))
		h.Write(buf[:])
		for _, v := range d.Theta {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenThetaDigest pins the exact bits of Engine.Infer's θ over fixed
// views and documents, recorded once when the two-bucket draw replaced the
// dense one-pass kernel (TestFoldInOracle and TestDrawIntervalsOracle show
// the new draw samples the same distribution). A fold-in edit that is meant
// to be arithmetic-neutral must leave these constants untouched.
func TestGoldenThetaDigest(t *testing.T) {
	cases := []struct {
		T     int
		alpha float64
		opts  Options
		inf   [][2]int
		want  string
	}{
		{T: 8, alpha: 0, opts: Options{Seed: 1}, want: "d248ff328ef0756e03d461c4ab16be5b0decf634c75540c90193cf1c8dca388c"},
		{T: 72, alpha: 0.1, opts: Options{Seed: 2, BurnIn: 5, Samples: 3}, want: "2dc3a45898a46cd371aaf54d60f4f386977d38b6215b46ecf2134982f4bf8d71"},
		{T: 1032, alpha: 0, opts: Options{Seed: 3}, want: "d919921d7f6335e9fa060acdc198647705fae12058b57308be4d5d58a002b290"},
		// +Inf cells on two words: every draw of those tokens takes the
		// degenerate-total fallback.
		{T: 8, alpha: 0.4, opts: Options{Seed: 4}, inf: [][2]int{{7, 2}, {7, 5}, {3, 0}}, want: "332d28c734ea3cdec626e2ee28ece168193e924eb4f2879777919aab5a38643f"},
	}
	docs := goldenDocs()
	for _, c := range cases {
		t.Run(fmt.Sprintf("T=%d/seed=%d", c.T, c.opts.Seed), func(t *testing.T) {
			e, err := New(goldenView(t, c.T, c.alpha, c.inf), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]*Document, len(docs))
			for i, words := range docs {
				out[i] = e.Infer(words)
			}
			if got := thetaDigest(out); got != c.want {
				t.Fatalf("θ digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestInfFallbackMatchesCategorical drives the degenerate-total path: a word
// whose row holds +Inf has a non-finite total on every draw, the init draw
// included, so on a document made only of such words every draw fills the
// dense weights and hands them to rng.Categorical. The engine must then
// match refFoldIn, which calls rng.Categorical for every draw, bit for bit.
func TestInfFallbackMatchesCategorical(t *testing.T) {
	f := goldenView(t, 8, 0.4, [][2]int{{7, 2}, {7, 5}, {3, 0}})
	e, err := New(f, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]int{
		{7},
		{3, 3, 3, 3, 3, 3, 3, 3},
		{7, 3, goldenV, 7, 7, 3, -1, 3},
		{3, 7, 7, 3, 3, 7, 7, 7, 3, 3, 7, 3},
	}
	for i, words := range docs {
		got := e.Infer(words).Theta
		want := refFoldIn(f, words, 4, DefaultBurnIn, DefaultSamples, exact)
		if len(got) != len(want) {
			t.Fatalf("doc %d: θ length %d, want %d", i, len(got), len(want))
		}
		for topic := range want {
			if math.Float64bits(got[topic]) != math.Float64bits(want[topic]) {
				t.Fatalf("doc %d topic %d: θ %v, reference %v", i, topic, got[topic], want[topic])
			}
		}
	}
}
