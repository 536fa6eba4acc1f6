package sourcelda

import (
	"sync"
	"sync/atomic"
	"testing"
)

// lifetimeModel fits a small heap-backed model for Inferrer lifetime tests.
func lifetimeModel(t *testing.T) *Model {
	t.Helper()
	return fitFixtureModel(t, Options{
		Lambda: &LambdaPrior{Fixed: true, Lambda: 1}, Iterations: 20, Seed: 3,
	})
}

func newTestInferrer(t *testing.T, m *Model, workers int) *Inferrer {
	t.Helper()
	inf, err := m.NewInferrer(InferOptions{Seed: 3, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

// TestInferrerPooledBatchMatchesSequential: a batch spread over a per-call
// worker pool returns the bits a sequential Inferrer returns, document by
// document, including the nil entry for an all-unknown document.
func TestInferrerPooledBatchMatchesSequential(t *testing.T) {
	m := lifetimeModel(t)
	texts := []string{"pencil ruler eraser pencil", "baseball baseball umpire", "zzz qqq", "pencil"}
	pooled := newTestInferrer(t, m, 3)
	defer pooled.Close()
	seq := newTestInferrer(t, m, 1)
	defer seq.Close()
	got, want := pooled.InferBatch(texts), seq.InferBatch(texts)
	for i := range texts {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("doc %d: nil mismatch", i)
		}
		if got[i] != nil && !sameInference(got[i], want[i]) {
			t.Fatalf("doc %d: pooled batch diverged from sequential", i)
		}
	}
}

// TestInferrerDrainSemantics pins the hot-swap contract: Close with an
// outstanding Acquire defers the drain until the matching Release, and
// Acquire on a fully drained Inferrer fails.
func TestInferrerDrainSemantics(t *testing.T) {
	inf := newTestInferrer(t, lifetimeModel(t), 2)
	if inf.Closed() {
		t.Fatal("fresh inferrer reports closed")
	}
	if !inf.Acquire() {
		t.Fatal("Acquire on live inferrer failed")
	}
	inf.Close()
	if inf.Closed() {
		t.Fatal("inferrer drained while a reference was outstanding")
	}
	// The outstanding reference still scores batches.
	if got := inf.InferBatch([]string{"pencil ruler", "baseball"}); got[0] == nil || got[1] == nil {
		t.Fatal("pinned inferrer failed to score")
	}
	inf.Release()
	if !inf.Closed() {
		t.Fatal("inferrer not drained after last release")
	}
	if inf.Acquire() {
		t.Fatal("Acquire succeeded on a drained inferrer")
	}
	// Close stays idempotent after drain.
	inf.Close()
}

func TestInferrerCloseIdempotent(t *testing.T) {
	inf := newTestInferrer(t, lifetimeModel(t), 0)
	inf.Close()
	inf.Close()
	if !inf.Closed() {
		t.Fatal("not closed")
	}
}

func TestInferrerUseAfterDrainPanics(t *testing.T) {
	inf := newTestInferrer(t, lifetimeModel(t), 0)
	inf.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("InferBatch on a drained inferrer did not panic")
		}
	}()
	inf.InferBatch([]string{"pencil"})
}

// TestInferrerConcurrentDrain hammers Acquire/Release and multi-document
// batches from many goroutines while the owner closes, asserting the
// Inferrer ends drained and its drain action ran exactly once. Run with
// -race.
func TestInferrerConcurrentDrain(t *testing.T) {
	inf := newTestInferrer(t, lifetimeModel(t), 4)
	var drains atomic.Int32
	inf.refs.onDrain = func() { drains.Add(1) }
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				if !inf.Acquire() {
					return // drained; later iterations must also fail
				}
				res := inf.InferBatch([]string{"pencil ruler eraser", "baseball umpire"})
				if res[0] == nil || res[1] == nil {
					t.Error("known-token doc scored nil")
				}
				inf.Release()
			}
		}()
	}
	close(start)
	inf.Close()
	wg.Wait()
	if !inf.Closed() {
		t.Fatal("inferrer not drained after all users released")
	}
	if n := drains.Load(); n != 1 {
		t.Fatalf("drain ran %d times, want 1", n)
	}
}
