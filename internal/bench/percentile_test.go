package bench

import (
	"errors"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so Percentile must sort
	}
	return v
}

func TestPercentileTenBeyondRule(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		p       float64
		want    float64
		refused bool
	}{
		{"p50 of 20 has ten beyond", 20, 0.50, 10, false},
		{"p50 of 19 has nine beyond", 19, 0.50, 0, true},
		{"p95 of 200 has ten beyond", 200, 0.95, 190, false},
		{"p95 of 199 has nine beyond", 199, 0.95, 0, true},
		{"p99 of 1000 has ten beyond", 1000, 0.99, 990, false},
		{"p99 of 35 is the old benchgw mistake", 35, 0.99, 0, true},
		{"p99 of 999", 999, 0.99, 0, true},
		{"empty sample", 0, 0.50, 0, true},
	}
	for _, c := range cases {
		q, err := Percentile(seq(c.n), c.p)
		if c.refused {
			if !errors.Is(err, ErrTooFewSamples) {
				t.Errorf("%s: got %v, %v; want ErrTooFewSamples", c.name, q, err)
			}
			continue
		}
		if err != nil || q.Value != c.want || q.N != c.n {
			t.Errorf("%s: got %v, %v; want value %v of n=%d", c.name, q, err, c.want, c.n)
		}
	}
	if _, err := Percentile(seq(100), 0.25); err == nil || errors.Is(err, ErrTooFewSamples) {
		t.Errorf("p25 must be rejected as out of range, got %v", err)
	}
}

func TestHighestPercentileFallsBack(t *testing.T) {
	q, err := HighestPercentile(seq(240), 0.99, 0.95, 0.90)
	if err != nil || q.P != 0.95 || q.N != 240 {
		t.Fatalf("240 samples support p95 but not p99: got %v, %v", q, err)
	}
	if s := q.String(); s != "p95=228 (n=240)" {
		t.Errorf("a percentile prints with its sample count, got %q", s)
	}
	if _, err := HighestPercentile(seq(50), 0.99, 0.95, 0.90); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("50 samples support none of them, got %v", err)
	}
}

func TestWindowedPercentileIgnoresOneSlowEpisode(t *testing.T) {
	// 600 samples in measured order: 1 ms everywhere, except a stall that
	// turns 60 consecutive ones (10 % of the sample) into 50 ms.
	v := make([]float64, 600)
	for i := range v {
		v[i] = 1
		if i >= 250 && i < 310 {
			v[i] = 50
		}
	}
	whole, _ := Percentile(append([]float64(nil), v...), 0.95)
	q, err := WindowedPercentile(v, 0.95)
	if err != nil || q.Value != 1 || q.N != 600 || q.Windows != 3 {
		t.Fatalf("the stall sits in one of three windows: got %v, %v (whole-sample p95 %v)", q, err, whole.Value)
	}
	if whole.Value != 50 {
		t.Fatalf("the whole-sample p95 should see the stall, got %v", whole.Value)
	}
	if v[0] != 1 || v[250] != 50 {
		t.Error("WindowedPercentile reordered its argument")
	}
	if s := q.String(); s != "p95=1 (n=600 in 3 windows)" {
		t.Errorf("a windowed percentile prints its windows, got %q", s)
	}

	cases := []struct {
		n, windows int
		refused    bool
	}{
		{199, 0, true}, // one window, nine beyond its p95
		{200, 1, false},
		{399, 1, false},
		{400, 2, false},
		{1000, 5, false},
	}
	for _, c := range cases {
		q, err := WindowedPercentile(seq(c.n), 0.95)
		if c.refused != errors.Is(err, ErrTooFewSamples) || q.Windows != c.windows || q.N != c.n {
			t.Errorf("p95 of %d samples: got %v, %v; want %d windows, refused %v", c.n, q, err, c.windows, c.refused)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	v := []float64{3, 1, 2, 10}
	if m := Median(v); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if v[0] != 3 || v[3] != 10 {
		t.Errorf("Median reordered its argument: %v", v)
	}
	if Median(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty input must give 0")
	}
}
