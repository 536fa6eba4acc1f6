package bench

import (
	"strings"
	"testing"
)

func TestParsePromSumsAndMeans(t *testing.T) {
	text := `# HELP srcldad_feed_docs_total Fed documents.
# TYPE srcldad_feed_docs_total counter
srcldad_feed_docs_total{model="default"} 16000
srcldad_stage_latency_seconds_sum{model="default",stage="infer"} 0.5
srcldad_stage_latency_seconds_count{model="default",stage="infer"} 250
srcldad_stage_latency_seconds_sum{model="default",stage="render"} 0.1
srcldad_stage_latency_seconds_count{model="default",stage="render"} 100
srcldad_stage_latency_seconds_bucket{model="default",stage="infer",le="+Inf"} 250
srcldagw_retries_total 3
srcldagw_retries_total_other 9
`
	p, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Sum("srcldad_feed_docs_total"); got != 16000 {
		t.Errorf("feed docs = %v", got)
	}
	if got := p.Sum("srcldagw_retries_total"); got != 3 {
		t.Errorf("a metric name must not match a longer name: got %v", got)
	}
	if got := p.HistMean("srcldad_stage_latency_seconds", `stage="infer"`); got != 0.002 {
		t.Errorf("infer mean = %v, want 0.002", got)
	}
	if got := p.HistMean("srcldad_stage_latency_seconds"); got != 0.6/350 {
		t.Errorf("mean over all stages = %v", got)
	}
	before := PromSeries{`srcldad_feed_docs_total{model="default"}`: 6000}
	if got := p.Sub(before).Sum("srcldad_feed_docs_total"); got != 10000 {
		t.Errorf("delta = %v", got)
	}
}
