package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"sourcelda/internal/parallel"
	"sourcelda/internal/rng"
)

type namedKernel struct {
	name   string
	sample func(probs []float64, u float64) int
}

// scanKernels returns the sequential reference followed by the two parallel
// kernels sharing one pool of the given size.
func scanKernels(workers int) ([]namedKernel, func()) {
	pool := parallel.NewPool(workers)
	return []namedKernel{
		{"sequential", (&sequentialScan{}).sample},
		{"simple-parallel", (&simpleParallel{pool: pool}).sample},
		{"prefix-sums", (&prefixSums{pool: pool}).sample},
	}, pool.Close
}

func TestSamplersAgreeExactly(t *testing.T) {
	// The paper's exactness guarantee: all three kernels must select the
	// same topic given the same probabilities and the same uniform draw.
	for _, workers := range []int{1, 2, 3, 5} {
		kernels, done := scanKernels(workers)
		r := rng.New(101)
		for trial := 0; trial < 200; trial++ {
			T := 1 + r.Intn(300)
			probs := make([]float64, T)
			for i := range probs {
				probs[i] = r.Float64() * 10
			}
			u := r.Float64()
			base := kernels[0].sample(probs, u)
			for _, k := range kernels[1:] {
				if got := k.sample(probs, u); got != base {
					t.Fatalf("workers=%d trial=%d T=%d: %s chose %d, sequential chose %d",
						workers, trial, T, k.name, got, base)
				}
			}
		}
		done()
	}
}

func TestSamplersMatchDistribution(t *testing.T) {
	// Sampling frequencies must match the probability vector.
	kernels, done := scanKernels(3)
	defer done()
	probs := []float64{1, 2, 3, 4} // P = 0.1, 0.2, 0.3, 0.4
	for _, k := range kernels {
		r := rng.New(55)
		counts := make([]int, 4)
		const n = 40000
		for i := 0; i < n; i++ {
			counts[k.sample(probs, r.Float64())]++
		}
		for i, c := range counts {
			want := probs[i] / 10
			got := float64(c) / n
			if math.Abs(got-want) > 0.02 {
				t.Errorf("%s: P(%d) = %v, want ≈%v", k.name, i, got, want)
			}
		}
	}
}

func TestSamplersSingleTopic(t *testing.T) {
	kernels, done := scanKernels(2)
	defer done()
	for _, k := range kernels {
		if got := k.sample([]float64{5}, 0.7); got != 0 {
			t.Fatalf("%s: single topic must return 0, got %d", k.name, got)
		}
	}
}

func TestSamplersRespectZeroProbability(t *testing.T) {
	kernels, done := scanKernels(3)
	defer done()
	probs := []float64{0, 1, 0, 1, 0}
	r := rng.New(77)
	for _, k := range kernels {
		for i := 0; i < 500; i++ {
			if got := k.sample(probs, r.Float64()); probs[got] == 0 {
				t.Fatalf("%s selected zero-probability topic %d", k.name, got)
			}
		}
	}
}

func TestPrefixSumsNonPowerOfTwo(t *testing.T) {
	// Blelloch pads to a power of two; verify odd sizes behave.
	pool := parallel.NewPool(3)
	defer pool.Close()
	ps := &prefixSums{pool: pool}
	seq := &sequentialScan{}
	r := rng.New(31)
	for _, T := range []int{1, 2, 3, 5, 17, 63, 65, 100, 127, 129} {
		probs := make([]float64, T)
		for i := range probs {
			probs[i] = r.Float64()
		}
		u := r.Float64()
		if a, b := ps.sample(probs, u), seq.sample(probs, u); a != b {
			t.Fatalf("T=%d: prefix %d vs sequential %d", T, a, b)
		}
	}
}

func TestSamplerPropertyValidIndex(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	sp := &simpleParallel{pool: pool}
	f := func(seed int64, u float64) bool {
		u = math.Abs(math.Mod(u, 1))
		r := rng.New(seed)
		T := 1 + r.Intn(50)
		probs := make([]float64, T)
		for i := range probs {
			probs[i] = r.Float64()
		}
		k := sp.sample(probs, u)
		return k >= 0 && k < T
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 128: 128}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
