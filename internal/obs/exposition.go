package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
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
	line   []byte
}

// NewExposition starts a body on w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// Family declares the family the following samples belong to: its # HELP
// and # TYPE lines. kind is "counter", "gauge" or "histogram". A family with
// no samples yet is still declared, so a dashboard sees the name before the
// first event.
func (x *Exposition) Family(name, kind, help string) {
	x.family = name
	b := append(x.line[:0], "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	x.flush(append(b, kind...))
}

// Int writes one integer sample of the current family. labels are name,
// value pairs, rendered in the order given.
func (x *Exposition) Int(v int64, labels ...string) {
	x.flush(strconv.AppendInt(x.series("", labels, ""), v, 10))
}

// Float writes one float sample of the current family, in the shortest
// form that round-trips (%g).
func (x *Exposition) Float(v float64, labels ...string) {
	x.flush(appendFloat(x.series("", labels, ""), v))
}

// Histogram writes one histogram series of the current family: a cumulative
// _bucket line per bound with le appended to labels, the +Inf bucket, _sum
// and _count.
func (x *Exposition) Histogram(s HistogramSnapshot, labels ...string) {
	for i, bound := range s.Bounds {
		le := strconv.FormatFloat(bound, 'f', -1, 64)
		x.flush(strconv.AppendUint(x.series("_bucket", labels, le), s.Cumulative[i], 10))
	}
	x.flush(strconv.AppendUint(x.series("_bucket", labels, "+Inf"), s.Count, 10))
	x.flush(appendFloat(x.series("_sum", labels, ""), s.Sum))
	x.flush(strconv.AppendUint(x.series("_count", labels, ""), s.Count, 10))
}

// series renders `family+suffix{labels,le="…"} ` — braces only when there is
// a label to hold, le only when non-empty.
func (x *Exposition) series(suffix string, labels []string, le string) []byte {
	if len(labels)%2 != 0 {
		panic("obs: Exposition labels must be name, value pairs")
	}
	b := append(x.line[:0], x.family...)
	b = append(b, suffix...)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		b = append(b, sep)
		b = append(b, labels[i]...)
		b = append(b, '=', '"')
		b = appendLabelValue(b, labels[i+1])
		b = append(b, '"')
		sep = ','
	}
	if le != "" {
		b = append(b, sep)
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// flush ends the line and writes it, keeping the buffer for the next one.
func (x *Exposition) flush(b []byte) {
	x.line = append(b, '\n')
	_, _ = x.w.Write(x.line)
}

// appendLabelValue escapes a label value as the format defines: backslash,
// double quote and line feed, nothing else.
func appendLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// MetricsHandler serves a body written by write — a WritePrometheus method,
// or a WriteRuntimeMetrics closure — under the exposition content type.
func MetricsHandler(write func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	})
}

// EventLog is a JSONL telemetry sink: one JSON object per line, and the
// first failure kept for the caller to report at exit, because telemetry
// must never abort training. A nil Out discards events. It does no locking;
// its owners (TrainingRecorder, dtrain.Metrics) append under their own.
type EventLog struct {
	Out io.Writer
	err error
}

// Append writes ev as one line.
func (l *EventLog) Append(ev any) {
	if l.Out == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil {
		_, err = l.Out.Write(append(b, '\n'))
	}
	if err != nil && l.err == nil {
		l.err = err
	}
}

// Err returns the first marshal or write error, if any.
func (l *EventLog) Err() error { return l.err }
