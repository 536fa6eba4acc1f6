package oracle

import (
	"math"
	"testing"
)

func TestZ(t *testing.T) {
	for _, c := range []struct {
		name    string
		want    float64
		samples []float64
		z, bias float64
	}{
		{"exact constant", 0.25, []float64{0.25, 0.25}, 0, 0},
		{"wrong constant", 0.25, []float64{0.5, 0.5}, math.Inf(1), 0.25},
		// mean 2, sample SD √2, standard error 1.
		{"one standard error", 1, []float64{1, 3}, 1, 1},
	} {
		z, bias := Z([]float64{c.want}, len(c.samples), func(seed int64) []float64 {
			return []float64{c.samples[seed-1]}
		})
		if z != c.z || bias != c.bias {
			t.Errorf("%s: Z = (%v, %v), want (%v, %v)", c.name, z, bias, c.z, c.bias)
		}
	}
}

func TestMeanSE(t *testing.T) {
	mean, se := MeanSE([]float64{1, 2, 3, 4})
	if mean != 2.5 || math.Abs(se-math.Sqrt(5.0/3/4)) > 1e-15 {
		t.Fatalf("MeanSE = (%v, %v), want (2.5, %v)", mean, se, math.Sqrt(5.0/3/4))
	}
}
