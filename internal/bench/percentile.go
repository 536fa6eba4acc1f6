package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported. With fewer, the "percentile" is one or two outliers and does not
// repeat between runs (the old examples/benchgw printed a p99 of 35
// responses, i.e. the maximum).
const minBeyond = 10

// ErrTooFewSamples is returned for a percentile the sample cannot support.
var ErrTooFewSamples = errors.New("bench: too few samples beyond the percentile")

// Quantile is one reported percentile together with the size of the sample
// it was taken from; the two are never printed apart.
type Quantile struct {
	P       float64 // in [0.5, 1)
	Value   float64
	N       int
	Windows int // > 0 when Value is the median of that many windows' percentiles
}

func (q Quantile) String() string {
	if q.Windows > 0 {
		return fmt.Sprintf("p%g=%.4g (n=%d in %d windows)", q.P*100, q.Value, q.N, q.Windows)
	}
	return fmt.Sprintf("p%g=%.4g (n=%d)", q.P*100, q.Value, q.N)
}

// Percentile returns the nearest-rank p-th percentile (0.5 <= p < 1) of
// values, which it sorts in place. It refuses with ErrTooFewSamples when
// fewer than ten samples lie beyond the returned rank.
func Percentile(values []float64, p float64) (Quantile, error) {
	if p < 0.5 || p >= 1 {
		return Quantile{}, fmt.Errorf("bench: percentile %g outside [0.5, 1)", p)
	}
	n := len(values)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minBeyond {
		return Quantile{P: p, N: n}, fmt.Errorf("%w: p%g of %d samples leaves %d beyond it, need %d",
			ErrTooFewSamples, p*100, n, max(n-rank, 0), minBeyond)
	}
	sort.Float64s(values)
	return Quantile{P: p, Value: values[rank-1], N: n}, nil
}

// windowMin is the smallest window WindowedPercentile cuts a sample into:
// 200 samples leave ten beyond a window's p95.
const windowMin = 200

// WindowedPercentile cuts values, which are in the order they were measured,
// into len/windowMin consecutive windows of near-equal size (one window
// below 2·windowMin), takes the p-th percentile of each under the ten-beyond
// rule, and returns the median of those. A slow episode of a shared box
// lands in one window and moves that window's percentile, not the result. N
// is the whole sample; values is left in order.
func WindowedPercentile(values []float64, p float64) (Quantile, error) {
	n := len(values)
	k := max(1, n/windowMin)
	per := make([]float64, k)
	for w := range per {
		window := append([]float64(nil), values[w*n/k:(w+1)*n/k]...)
		q, err := Percentile(window, p)
		if err != nil {
			return Quantile{P: p, N: n}, err
		}
		per[w] = q.Value
	}
	return Quantile{P: p, Value: Median(per), N: n, Windows: k}, nil
}

// HighestPercentile returns the highest of the candidate percentiles that
// values can support under the ten-beyond rule, or an error if none can.
func HighestPercentile(values []float64, candidates ...float64) (Quantile, error) {
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	var err error
	for _, p := range candidates {
		var q Quantile
		if q, err = Percentile(values, p); err == nil {
			return q, nil
		}
	}
	return Quantile{}, err
}

// Median is for the handful of repeats of one timed step (sweeps, cold
// starts, set-up passes), where the ten-beyond rule does not apply. It
// returns 0 for an empty slice and does not reorder its argument.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
