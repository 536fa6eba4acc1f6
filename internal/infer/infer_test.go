package infer

import (
	"math"
	"runtime"
	"testing"
	"time"

	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/parallel"
	"sourcelda/internal/textproc"
)

// fixture trains a tiny two-source-topic model whose topics are cleanly
// separable, returning the model and its corpus.
func fixture(t testing.TB) (*core.Model, *corpus.Corpus) {
	t.Helper()
	c := corpus.New()
	stop := textproc.DefaultStopwords()
	for i := 0; i < 10; i++ {
		c.AddText("school", "pencil ruler eraser pencil notebook paper", stop)
		c.AddText("ball", "baseball umpire pitcher baseball inning glove", stop)
	}
	school := knowledge.NewArticleFromText("School Supplies",
		"pencil pencil ruler eraser notebook paper paper pencil ruler", c.Vocab, stop, true)
	ball := knowledge.NewArticleFromText("Baseball",
		"baseball baseball umpire pitcher inning glove baseball umpire", c.Vocab, stop, true)
	src := knowledge.MustNewSource([]*knowledge.Article{school, ball})
	m, err := core.Fit(c, src, core.Options{
		Alpha: 0.5, Beta: 0.01,
		LambdaMode: core.LambdaFixed, Lambda: 1,
		Iterations: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, c
}

func encode(t testing.TB, c *corpus.Corpus, text string) []int {
	t.Helper()
	return c.Vocab.EncodeTokens(textproc.Tokenize(text), false)
}

func TestInferHeldOutDocument(t *testing.T) {
	m, c := fixture(t)
	e, err := New(m.Freeze(), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	doc := e.Infer(encode(t, c, "pencil pencil ruler notebook eraser paper"))
	if doc.Known != 6 || doc.Unknown != 0 {
		t.Fatalf("known=%d unknown=%d", doc.Known, doc.Unknown)
	}
	var sum float64
	best := 0
	for topic, p := range doc.Theta {
		sum += p
		if p > doc.Theta[best] {
			best = topic
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %v", sum)
	}
	if got := e.Labels()[best]; got != "School Supplies" {
		t.Fatalf("held-out school document tagged %q (theta %v)", got, doc.Theta)
	}
}

func TestInferDeterministicGivenSeed(t *testing.T) {
	m, c := fixture(t)
	words := encode(t, c, "baseball umpire glove baseball pitcher")
	e1, _ := New(m.Freeze(), Options{Seed: 3})
	e2, _ := New(m.Freeze(), Options{Seed: 3})
	a, b := e1.Infer(words), e2.Infer(words)
	for topic := range a.Theta {
		if a.Theta[topic] != b.Theta[topic] {
			t.Fatal("same seed diverged")
		}
	}
}

// TestBatchMatchesSingleBitForBit is the acceptance criterion: a batch of N
// documents equals N independent Infer calls exactly, at any worker count,
// regardless of position in the batch.
func TestBatchMatchesSingleBitForBit(t *testing.T) {
	m, c := fixture(t)
	e, err := New(m.Freeze(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]int{
		encode(t, c, "pencil ruler eraser"),
		encode(t, c, "baseball baseball umpire inning"),
		encode(t, c, "pencil baseball glove notebook"),
		encode(t, c, "paper paper paper"),
		encode(t, c, "pitcher inning glove umpire baseball pencil"),
	}
	singles := make([]*Document, len(docs))
	for i, words := range docs {
		singles[i] = e.Infer(words)
	}
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		batch := e.InferBatch(docs, pool)
		pool.Close()
		for i := range docs {
			if len(batch[i].Theta) != len(singles[i].Theta) {
				t.Fatalf("workers=%d doc %d theta length mismatch", workers, i)
			}
			for topic := range batch[i].Theta {
				if batch[i].Theta[topic] != singles[i].Theta[topic] {
					t.Fatalf("workers=%d doc %d topic %d: batch %v != single %v",
						workers, i, topic, batch[i].Theta[topic], singles[i].Theta[topic])
				}
			}
		}
	}
	// Reordering the batch must not change any document's result: streams
	// are keyed by content, not position.
	reversed := make([][]int, len(docs))
	for i := range docs {
		reversed[i] = docs[len(docs)-1-i]
	}
	back := e.InferBatch(reversed, nil)
	for i := range docs {
		got := back[len(docs)-1-i]
		for topic := range got.Theta {
			if got.Theta[topic] != singles[i].Theta[topic] {
				t.Fatal("batch position changed a document's result")
			}
		}
	}
}

func TestInferUnknownOnlyDocument(t *testing.T) {
	m, _ := fixture(t)
	e, err := New(m.Freeze(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc := e.Infer([]int{-1, 10_000, 99_999})
	if doc.Theta != nil {
		t.Fatal("unknown-only document produced a mixture")
	}
	if doc.Known != 0 || doc.Unknown != 3 {
		t.Fatalf("known=%d unknown=%d", doc.Known, doc.Unknown)
	}
	empty := e.Infer(nil)
	if empty.Theta != nil || empty.Known != 0 || empty.Unknown != 0 {
		t.Fatal("empty document mishandled")
	}
}

func TestFrozenFromResultMatchesLiveFreeze(t *testing.T) {
	m, c := fixture(t)
	words := encode(t, c, "notebook eraser pencil ruler")
	live, _ := New(m.Freeze(), Options{Seed: 2})
	fromRes, err := core.NewFrozen(m.Result())
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := New(fromRes, Options{Seed: 2})
	a, b := live.Infer(words), snap.Infer(words)
	for topic := range a.Theta {
		if a.Theta[topic] != b.Theta[topic] {
			t.Fatal("snapshot-based frozen view diverged from live Freeze")
		}
	}
}

// TestNewFromRuntimeIsPointInTimeSnapshot pins the snapshot contract of the
// serve-while-learning split: an engine built straight from the chain
// runtime equals one built from an explicit Freeze, and keeps returning the
// same answers after the runtime absorbs more documents — while a fresh
// snapshot sees the updated counts.
func TestNewFromRuntimeIsPointInTimeSnapshot(t *testing.T) {
	m, c := fixture(t)
	words := encode(t, c, "baseball umpire glove pitcher inning")
	viaFreeze, _ := New(m.Freeze(), Options{Seed: 9})
	viaRuntime, err := NewFromRuntime(m.Runtime(), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, b := viaFreeze.Infer(words), viaRuntime.Infer(words)
	for topic := range a.Theta {
		if a.Theta[topic] != b.Theta[topic] {
			t.Fatal("NewFromRuntime diverged from New(Freeze())")
		}
	}

	// Mutate the runtime heavily; the old snapshot must not move.
	fed := &corpus.Document{Words: append([]int(nil), words...)}
	for i := 0; i < 20; i++ {
		if err := m.AppendDocs([]*corpus.Document{fed}, 3); err != nil {
			t.Fatal(err)
		}
	}
	after := viaRuntime.Infer(words)
	for topic := range b.Theta {
		if after.Theta[topic] != b.Theta[topic] {
			t.Fatal("engine snapshot changed under runtime mutation")
		}
	}
	if _, err := NewFromRuntime(nil, Options{}); err == nil {
		t.Fatal("nil runtime accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil frozen accepted")
	}
	m, _ := fixture(t)
	if _, err := New(m.Freeze(), Options{Samples: -1}); err == nil {
		t.Fatal("negative samples accepted")
	}
	// Negative burn-in is the explicit "no burn-in" schedule, not an error.
	noBurn, err := New(m.Freeze(), Options{BurnIn: -1, Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := noBurn.Infer([]int{0, 1}); d.Theta == nil {
		t.Fatal("no-burn-in engine produced no mixture")
	}
	if _, err := core.NewFrozen(nil); err == nil {
		t.Fatal("nil result accepted by NewFrozen")
	}
	bad := m.Result()
	bad.Labels = bad.Labels[:1]
	if _, err := core.NewFrozen(bad); err == nil {
		t.Fatal("mismatched labels accepted by NewFrozen")
	}
}

// TestInferAllocs pins what one fold-in allocates once the engine's scratch
// pool is warm: the Document and its Theta, which the caller keeps.
// Everything else — the known-token list, counts, assignments, the running
// sum and the document's generator — is reused across calls.
func TestInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	e, err := New(goldenView(t, 1032, 0, nil), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs := goldenDocs()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		e.Infer(docs[4+i%16])
		i++
	})
	if allocs > 2 {
		t.Fatalf("Infer allocates %v times per document, want at most 2", allocs)
	}
}

// TestRetiredEngineIsCollectable pins that a used engine's scratch pool does
// not keep the engine, and with it the frozen view, alive: the runtime holds
// every used sync.Pool for two GC cycles, so a pool embedded in the engine
// would keep each retired model version resident that long.
func TestRetiredEngineIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		e, err := New(goldenView(t, 72, 0, nil), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.Infer(goldenDocs()[4])
		runtime.SetFinalizer(e, func(*Engine) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("engine still reachable after a GC")
	}
}
