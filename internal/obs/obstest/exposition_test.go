package obstest

import (
	"fmt"
	"strings"
	"testing"
)

// capture records CheckExposition's complaints instead of failing.
type capture struct {
	testing.TB
	errs []string
}

func (c *capture) Helper() {}

func (c *capture) Errorf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

const good = `# HELP x_total Things.
# TYPE x_total counter
x_total{model="a b}",code="200"} 3
x_total{model="q\"b\\n\n",code="200"} 4
# HELP x_empty_total A family with no sample yet.
# TYPE x_empty_total counter
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{model="m",le="0.1"} 1
x_seconds_bucket{model="m",le="+Inf"} 2
x_seconds_sum{model="m"} 0.5
x_seconds_count{model="m"} 2
x_seconds_bucket{le="0.1"} 0
x_seconds_bucket{le="+Inf"} 0
x_seconds_sum 0
x_seconds_count 0
`

func TestCheckExposition(t *testing.T) {
	for _, tc := range []struct {
		name, text, want string
	}{
		{"well formed", good, ""},
		{"bare histogram", "y_seconds_bucket{le=\"+Inf\"} 0\ny_seconds_sum 0\ny_seconds_count 0\n", "not preceded"},
		{"sample before its header", "x 1\n# HELP x X.\n# TYPE x gauge\n", "not preceded"},
		{"help without type", "# HELP x X.\n", "has no # TYPE"},
		{"type without help", "# TYPE x gauge\nx 1\n", "not preceded"},
		{"declared twice", good + "# HELP x_total Again.\n# TYPE x_total counter\n", "second # HELP"},
		{"decreasing buckets", strings.Replace(good, `x_seconds_bucket{model="m",le="0.1"} 1`, `x_seconds_bucket{model="m",le="0.1"} 5`, 1), "fewer than"},
		{"inf differs from count", strings.Replace(good, `x_seconds_count{model="m"} 2`, `x_seconds_count{model="m"} 3`, 1), "_count 3"},
		{"no inf bucket", strings.Replace(good, "x_seconds_bucket{le=\"+Inf\"} 0\n", "", 1), "want +Inf"},
		{"go escape", strings.Replace(good, `model="a b}"`, `model="a\tb}"`, 1), `escape \t`},
		{"garbage", good + "x_total{model=\"open 3\n", "unparseable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &capture{TB: t}
			CheckExposition(c, tc.text)
			got := strings.Join(c.errs, "\n")
			if tc.want == "" && got != "" {
				t.Fatalf("complaints about a well-formed exposition:\n%s", got)
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("complaints %q, want one containing %q", got, tc.want)
			}
		})
	}
}
