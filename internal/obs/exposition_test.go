package obs

import (
	"bytes"
	"math"
	"testing"

	"sourcelda/internal/obs/obstest"
)

func TestExpositionSamples(t *testing.T) {
	var buf bytes.Buffer
	x := NewExposition(&buf)
	x.Family("a_total", "counter", "No labels.")
	x.Int(7)
	x.Family("b", "gauge", "Several labels, in the order given.")
	x.Int(-3, "model", "news", "code", "200")
	x.Int(math.MaxInt64, "model", `q"b\c`+"\n\t")
	x.Family("c_empty", "gauge", "Declared with no sample yet.")
	x.Family("d_seconds", "gauge", "Floats.")
	x.Float(0.25, "stage", "infer")
	for _, v := range []float64{0, 1e-7, 1e21, 16.270400000000002, -98765.4321} {
		x.Float(v)
	}
	want := `# HELP a_total No labels.
# TYPE a_total counter
a_total 7
# HELP b Several labels, in the order given.
# TYPE b gauge
b{model="news",code="200"} -3
b{model="q\"b\\c\n` + "\t" + `"} 9223372036854775807
# HELP c_empty Declared with no sample yet.
# TYPE c_empty gauge
# HELP d_seconds Floats.
# TYPE d_seconds gauge
d_seconds{stage="infer"} 0.25
d_seconds 0
d_seconds 1e-07
d_seconds 1e+21
d_seconds 16.270400000000002
d_seconds -98765.4321
`
	if got := buf.String(); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
	obstest.CheckExposition(t, buf.String())
}

func TestExpositionHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.0005, 0.25, 1, 10})
	for _, v := range []float64{0.0001, 0.25, 0.3, 99} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	x := NewExposition(&buf)
	x.Family("h_seconds", "histogram", "With and without labels.")
	x.Histogram(h.Snapshot(), "model", "m", "stage", "render")
	x.Histogram(NewHistogram([]float64{1}).Snapshot())
	want := `# HELP h_seconds With and without labels.
# TYPE h_seconds histogram
h_seconds_bucket{model="m",stage="render",le="0.0005"} 1
h_seconds_bucket{model="m",stage="render",le="0.25"} 2
h_seconds_bucket{model="m",stage="render",le="1"} 3
h_seconds_bucket{model="m",stage="render",le="10"} 3
h_seconds_bucket{model="m",stage="render",le="+Inf"} 4
h_seconds_sum{model="m",stage="render"} 99.5501
h_seconds_count{model="m",stage="render"} 4
h_seconds_bucket{le="1"} 0
h_seconds_bucket{le="+Inf"} 0
h_seconds_sum 0
h_seconds_count 0
`
	if got := buf.String(); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
	obstest.CheckExposition(t, buf.String())
}

func TestExpositionOddLabelsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a label name without a value was accepted")
		}
	}()
	x := NewExposition(&bytes.Buffer{})
	x.Family("a", "gauge", "A.")
	x.Int(1, "model")
}
