package bench

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("got %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("got %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := MetricSpec{Name: "infer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "train_tokens_per_s", Unit: "tok/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	cases := []struct {
		name          string
		before, after []float64
		spec          MetricSpec
		want          string
	}{
		{"unchanged", steady, steady, lower, VerdictOK},
		{"latency up 20%", steady, scale(steady, 1.2), lower, VerdictRegressed},
		{"latency up 5% is within the bound", steady, scale(steady, 1.05), lower, VerdictOK},
		{"latency down 20%", steady, scale(steady, 0.8), lower, VerdictImproved},
		{"throughput down 20%", steady, scale(steady, 0.8), higher, VerdictRegressed},
		{"throughput up 20%", steady, scale(steady, 1.2), higher, VerdictImproved},
		{"spread wider than the bound", noisy, noisy, lower, VerdictUnresolved},
		{"noisy, but every after run beats every before run", noisy, scale(steady, 0.5), lower, VerdictImproved},
		{"single runs, small change", []float64{100}, []float64{103}, lower, VerdictOK},
		{"single runs, regression", []float64{100}, []float64{120}, lower, VerdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.before, c.after, c.spec); got.Verdict != c.want {
			t.Errorf("%s: verdict %q (change %+.3f, spreads %.3f/%.3f), want %q",
				c.name, got.Verdict, got.Change, got.SpreadBefore, got.SpreadAfter, c.want)
		}
	}
	if got := judge(steady, scale(steady, 1.2), higher); math.Abs(got.Change+0.2) > 1e-9 {
		t.Errorf("a higher-is-better gain of 20%% must read as change -0.2, got %v", got.Change)
	}
}

func TestCompareSkipsQuickAndCountsFailures(t *testing.T) {
	m := &Manifest{EndToEnd: []MetricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2}},
		PerLayer: []MetricSpec{{Name: "core.model_build_s", Unit: "s", Better: "lower"}}}
	m.Workloads = append(m.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "serve_feed"})
	rep := func(comparable bool, setup, build float64, failed int) *Report {
		return &Report{Workload: "serve_feed", Comparable: comparable, Failed: failed, Metrics: map[string]Metric{
			"setup_s": {Value: setup, Unit: "s"}, "core.model_build_s": {Value: build, Unit: "s"}}}
	}
	rows, failed := Compare(m, []*Report{rep(true, 1, 1, 0), rep(false, 50, 50, 0)}, []*Report{rep(true, 1.5, 3, 2)})
	if failed != 2 {
		t.Errorf("failed operations after = %d, want 2", failed)
	}
	if len(rows) != 2 || rows[0].Verdict != VerdictRegressed || rows[0].NBefore != 1 {
		t.Fatalf("the -quick report must be ignored and setup_s regress: %+v", rows)
	}
	if rows[1].Verdict != VerdictInfo {
		t.Errorf("per-layer rows carry no verdict, got %q", rows[1].Verdict)
	}
}
