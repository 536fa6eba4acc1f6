package experiments

import (
	"sourcelda/internal/mathx"
	"sourcelda/internal/parallel"
)

// The paper's §III-C4 kernels parallelize the scan over one token's topic
// vector: given the T unnormalized conditionals and a uniform variate u they
// form cumulative sums and binary-search for u·total, so — up to
// floating-point summation order — they select the index the sequential scan
// of Algorithm 1 selects. They were sampling kernels of internal/core until
// measurement showed them 15–70× slower than that scan at every topic count
// this repository reaches; they live here so Fig. 8(f) can still time them
// draw for draw against it. Each kernel owns its scratch and is not safe for
// concurrent use.

// sequentialScan is Algorithm 1's inner loop, the reference the two parallel
// kernels are pinned to.
type sequentialScan struct {
	cum []float64
}

func (s *sequentialScan) sample(probs []float64, u float64) int {
	s.cum = resize(s.cum, len(probs))
	copy(s.cum, probs)
	return mathx.SearchCumulative(s.cum, u*mathx.PrefixSums(s.cum))
}

// simpleParallel is Algorithm 3: each worker copies and locally scans a
// contiguous chunk, chunk totals are combined sequentially at the barrier,
// and a second parallel pass adds each chunk's offset.
type simpleParallel struct {
	pool *parallel.Pool
	cum  []float64
	ends []float64
}

func (s *simpleParallel) sample(probs []float64, u float64) int {
	T := len(probs)
	s.cum = resize(s.cum, T)
	cum := s.cum
	// Pool.Run hands out ceil(T/chunks)-sized chunks; ends is indexed by
	// chunk number.
	chunks := min(s.pool.Workers(), T)
	size := (T + chunks - 1) / chunks
	s.ends = resize(s.ends, (T+size-1)/size)
	ends := s.ends

	// Phase 1 (parallel): locally scan each chunk.
	s.pool.Run(T, func(lo, hi int) {
		var run float64
		for t := lo; t < hi; t++ {
			run += probs[t]
			cum[t] = run
		}
		ends[lo/size] = run
	})
	// Phase 2 (sequential): combine chunk end values into offsets.
	var offset float64
	for c, end := range ends {
		ends[c] = offset
		offset += end
	}
	// Phase 3 (parallel): add each chunk's offset to its items.
	s.pool.Run(T, func(lo, hi int) {
		off := ends[lo/size]
		if off == 0 {
			return
		}
		for t := lo; t < hi; t++ {
			cum[t] += off
		}
	})
	return mathx.SearchCumulative(cum, u*cum[T-1])
}

// prefixSums is Algorithm 2: a Blelloch work-efficient scan (upsweep, clear,
// downsweep) over a power-of-two padded buffer, converted to inclusive sums
// with a final parallel pass.
type prefixSums struct {
	pool *parallel.Pool
	scan []float64
}

func (s *prefixSums) sample(probs []float64, u float64) int {
	T := len(probs)
	n := nextPow2(T)
	s.scan = resize(s.scan, n)
	scan := s.scan

	s.pool.Run(T, func(lo, hi int) { copy(scan[lo:hi], probs[lo:hi]) })
	clear(scan[T:])

	// Upsweep: for d in [0, log2 n): scan[i+2^{d+1}-1] += scan[i+2^d-1].
	for d := 1; d < n; d <<= 1 {
		stride := d << 1
		s.pool.Run(n/stride, func(lo, hi int) {
			for it := lo; it < hi; it++ {
				i := it * stride
				scan[i+stride-1] += scan[i+d-1]
			}
		})
	}
	// Clear the root, downsweep.
	scan[n-1] = 0
	for d := n >> 1; d >= 1; d >>= 1 {
		stride := d << 1
		s.pool.Run(n/stride, func(lo, hi int) {
			for it := lo; it < hi; it++ {
				i := it * stride
				left := scan[i+d-1]
				scan[i+d-1] = scan[i+stride-1]
				scan[i+stride-1] += left
			}
		})
	}
	// Convert the exclusive scan to inclusive sums in parallel.
	s.pool.Run(T, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			scan[t] += probs[t]
		}
	})
	return mathx.SearchCumulative(scan[:T], u*scan[T-1])
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
