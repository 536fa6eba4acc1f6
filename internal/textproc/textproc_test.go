package textproc

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Hello, World! 42 times")
	want := []string{"hello", "world", "42", "times"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeApostrophes(t *testing.T) {
	got := Tokenize("don't can't o'clock")
	want := []string{"dont", "cant", "oclock"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Zürich café")
	want := []string{"zürich", "café"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ... !!! "); len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestStopwords(t *testing.T) {
	s := DefaultStopwords()
	if !s.Contains("the") || !s.Contains("THE") {
		t.Fatal("'the' should be a stop word (case-insensitive)")
	}
	if s.Contains("pencil") {
		t.Fatal("'pencil' should not be a stop word")
	}
	got := s.Filter([]string{"the", "pencil", "and", "ruler"})
	want := []string{"pencil", "ruler"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Filter = %v, want %v", got, want)
	}
}

func TestVocabularyInterning(t *testing.T) {
	v := NewVocabulary()
	a := v.Add("pencil")
	b := v.Add("ruler")
	if a == b {
		t.Fatal("distinct words share an id")
	}
	if again := v.Add("pencil"); again != a {
		t.Fatalf("re-adding returned %d, want %d", again, a)
	}
	if v.Size() != 2 {
		t.Fatalf("size %d, want 2", v.Size())
	}
	if v.Word(a) != "pencil" {
		t.Fatalf("Word(%d) = %q", a, v.Word(a))
	}
	if id, ok := v.ID("ruler"); !ok || id != b {
		t.Fatalf("ID(ruler) = %d, %v", id, ok)
	}
	if _, ok := v.ID("missing"); ok {
		t.Fatal("missing word reported present")
	}
}

func TestVocabularyIDsAreDense(t *testing.T) {
	f := func(words []string) bool {
		v := NewVocabulary()
		for _, w := range words {
			v.Add(w)
		}
		// Ids must be exactly 0..Size-1 and Word must round-trip.
		for i := 0; i < v.Size(); i++ {
			id, ok := v.ID(v.Word(i))
			if !ok || id != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeTokens(t *testing.T) {
	v := NewVocabulary()
	ids := v.EncodeTokens([]string{"a", "b", "a"}, true)
	if len(ids) != 3 || ids[0] != ids[2] || ids[0] == ids[1] {
		t.Fatalf("ids = %v", ids)
	}
	// Non-growing: unseen dropped.
	ids2 := v.EncodeTokens([]string{"a", "zz", "b"}, false)
	if len(ids2) != 2 {
		t.Fatalf("non-growing encode = %v, want 2 ids", ids2)
	}
	if v.Size() != 2 {
		t.Fatalf("vocabulary grew to %d", v.Size())
	}
}

func TestTFIDFVectorNormalized(t *testing.T) {
	docs := [][]int{{0, 0, 1}, {1, 2}, {2, 2, 2}}
	tf := NewTFIDF(docs, 3)
	vec := tf.Vector(docs[0])
	var norm float64
	for _, x := range vec {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("L2 norm² = %v, want 1", norm)
	}
}

func TestTFIDFRareWordWeighsMore(t *testing.T) {
	// Word 0 appears in all docs, word 2 in one: idf(2) > idf(0).
	docs := [][]int{{0, 1}, {0, 1}, {0, 2}}
	tf := NewTFIDF(docs, 3)
	if tf.IDF(2) <= tf.IDF(0) {
		t.Fatalf("idf(rare)=%v should exceed idf(common)=%v", tf.IDF(2), tf.IDF(0))
	}
}

func TestTFIDFEmptyDoc(t *testing.T) {
	tf := NewTFIDF([][]int{{0}}, 2)
	vec := tf.Vector(nil)
	for _, x := range vec {
		if x != 0 {
			t.Fatal("empty doc should vectorize to zero")
		}
	}
}

func TestWeightedQueryVector(t *testing.T) {
	tf := NewTFIDF([][]int{{0, 1}, {1}}, 3)
	q := tf.WeightedQueryVector([]int{0, 1}, []float64{0.9, 0.1})
	var norm float64
	for _, x := range q {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("query norm² = %v", norm)
	}
	if q[0] <= q[1] {
		t.Fatalf("heavier+rarer word should dominate: %v", q)
	}
	// Out-of-range ids must be ignored, not panic.
	_ = tf.WeightedQueryVector([]int{-1, 99}, []float64{1, 1})
}

func TestWeightedQueryVectorLengthMismatchPanics(t *testing.T) {
	tf := NewTFIDF([][]int{{0}}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tf.WeightedQueryVector([]int{0}, []float64{1, 2})
}

func TestTopWords(t *testing.T) {
	probs := []float64{0.1, 0.5, 0.2, 0.2}
	got := TopWords(probs, 3)
	if got[0] != 1 {
		t.Fatalf("top word %d, want 1", got[0])
	}
	// Ties (ids 2 and 3) break toward the lower id.
	if got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want tie order [_, 2, 3]", got)
	}
	if n := len(TopWords(probs, 10)); n != 4 {
		t.Fatalf("over-length request returned %d", n)
	}
}

// TestTopWordsMatchesFullSort checks the one-pass selection against the
// argsort it replaced, over vectors dense with ties.
func TestTopWordsMatchesFullSort(t *testing.T) {
	f := func(raw []uint8, n uint8) bool {
		probs := make([]float64, len(raw))
		ids := make([]int, len(raw))
		for w, x := range raw {
			probs[w] = float64(x % 7)
			ids[w] = w
		}
		sort.Slice(ids, func(i, j int) bool {
			if probs[ids[i]] != probs[ids[j]] {
				return probs[ids[i]] > probs[ids[j]]
			}
			return ids[i] < ids[j]
		})
		want := ids[:min(int(n), len(ids))]
		got := TopWords(probs, int(n))
		return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
