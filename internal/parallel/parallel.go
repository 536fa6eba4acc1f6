package parallel

import "sync"

// Pool is a reusable fixed-size worker pool supporting barrier-style
// parallel-for regions. A Pool with one worker executes regions inline.
type Pool struct {
	workers int
	tasks   chan func()
	closed  bool
	mu      sync.Mutex
}

// NewPool starts a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func(), workers)
		for i := 0; i < workers; i++ {
			go func() {
				for fn := range p.tasks {
					fn()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close releases the worker goroutines. The pool must not be used after
// Close. Closing a single-worker pool is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tasks != nil && !p.closed {
		close(p.tasks)
		p.closed = true
	}
}

// Run splits [0, n) into one contiguous chunk per worker and executes fn on
// each chunk concurrently, returning when every chunk completes (a barrier).
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		fn(0, n)
		return
	}
	chunks := p.workers
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		lo, hi := lo, hi
		p.tasks <- func() {
			defer wg.Done()
			fn(lo, hi)
		}
	}
	wg.Wait()
}
