package parallel

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		var hits [100]int32
		p.Run(100, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		p.Close()
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestPoolRunEmpty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	called := false
	p.Run(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Run(0) should not invoke fn")
	}
}

func TestPoolMinimumOneWorker(t *testing.T) {
	p := NewPool(0)
	if p.Workers() != 1 {
		t.Fatalf("workers = %d, want 1", p.Workers())
	}
	p.Close() // must be a safe no-op for single-worker pools
	p.Close()
}

func TestPoolDoubleCloseSafe(t *testing.T) {
	p := NewPool(3)
	p.Close()
	p.Close() // second close must not panic
}
