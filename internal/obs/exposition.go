package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Exposition writes a metrics body in the Prometheus text exposition format,
// version 0.0.4 — the one place in the repository that knows that format.
// A renderer declares each family with Family and follows it with the
// family's samples; state stays with whoever collected it, Exposition holds
// only the writer and the family being written.
//
// Write errors are dropped: the writer is an HTTP response or a buffer, and
// a scrape whose client has gone has nobody left to tell.
type Exposition struct {
	w      io.Writer
	family string
}

// NewExposition starts a body on w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// Family declares the family the following samples belong to: its # HELP
// and # TYPE lines. kind is "counter", "gauge" or "histogram". A family with
// no samples yet is still declared, so a dashboard sees the name before the
// first event.
func (x *Exposition) Family(name, kind, help string) {
	x.family = name
	fmt.Fprintf(x.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Int writes one integer sample of the current family. labels are name,
// value pairs, rendered in the order given.
func (x *Exposition) Int(v int64, labels ...string) {
	fmt.Fprintf(x.w, "%s%s %d\n", x.family, labelSet(labels, ""), v)
}

// Float writes one float sample of the current family, in the shortest
// form that round-trips.
func (x *Exposition) Float(v float64, labels ...string) {
	fmt.Fprintf(x.w, "%s%s %g\n", x.family, labelSet(labels, ""), v)
}

// Histogram writes one histogram series of the current family: a cumulative
// _bucket line per bound with le appended to labels, the +Inf bucket, _sum
// and _count.
func (x *Exposition) Histogram(s HistogramSnapshot, labels ...string) {
	for i, bound := range s.Bounds {
		le := strconv.FormatFloat(bound, 'f', -1, 64)
		fmt.Fprintf(x.w, "%s_bucket%s %d\n", x.family, labelSet(labels, le), s.Cumulative[i])
	}
	fmt.Fprintf(x.w, "%s_bucket%s %d\n", x.family, labelSet(labels, "+Inf"), s.Count)
	set := labelSet(labels, "")
	fmt.Fprintf(x.w, "%s_sum%s %g\n%s_count%s %d\n", x.family, set, s.Sum, x.family, set, s.Count)
}

// labelEscaper escapes a label value as the format defines: backslash,
// double quote and line feed, nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSet renders `{name="value",…,le="…"}` — le only when non-empty, and
// nothing at all when there is no label to hold.
func labelSet(labels []string, le string) string {
	if len(labels)%2 != 0 {
		panic("obs: Exposition labels must be name, value pairs")
	}
	var b strings.Builder
	sep := "{"
	for i := 0; i < len(labels); i += 2 {
		b.WriteString(sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`)
		sep = ","
	}
	if le != "" {
		b.WriteString(sep + `le="` + le + `"`)
	}
	if b.Len() > 0 {
		b.WriteByte('}')
	}
	return b.String()
}

// MetricsHandler serves a body written by write — a WritePrometheus method,
// or a WriteRuntimeMetrics closure — under the exposition content type.
func MetricsHandler(write func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	})
}
