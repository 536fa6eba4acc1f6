package bench

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public function. Spans of one operation (one
// training run, one request, one feed) share Op; Parent names the span of
// the same operation that caused this one.
type Span struct {
	Workload string `json:"workload"`
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Index    int    `json:"i,omitempty"` // which repeat, e.g. the sweep number
	StartNS  int64  `json:"start_ns"`    // since the tracer was made
	EndNS    int64  `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so traced code paths need no branches.
type Tracer struct {
	workload string
	t0       time.Time
	nextOp   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// NewOp returns a fresh operation id.
func (t *Tracer) NewOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// Begin opens a span and returns the function that closes it and reports
// its duration.
func (t *Tracer) Begin(op int64, name, parent string, index int) func() time.Duration {
	start := time.Now()
	return func() time.Duration {
		end := time.Now()
		if t != nil {
			t.mu.Lock()
			t.spans = append(t.spans, Span{
				Workload: t.workload, Op: op, Name: name, Parent: parent, Index: index,
				StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
			})
			t.mu.Unlock()
		}
		return end.Sub(start)
	}
}

// Time runs fn inside a span and returns how long it took.
func (t *Tracer) Time(op int64, name, parent string, fn func()) time.Duration {
	end := t.Begin(op, name, parent, 0)
	fn()
	return end()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes sums, per span name, each span's duration minus the part of it
// covered by its children: the spans of the same operation that name it as
// Parent and lie inside its interval.
func SelfTimes(spans []Span) map[string]time.Duration {
	byOp := map[int64][]Span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	self := map[string]time.Duration{}
	for _, op := range byOp {
		for _, p := range op {
			d := p.Duration()
			for _, c := range op {
				if c.Parent == p.Name && c.StartNS >= p.StartNS && c.EndNS <= p.EndNS {
					d -= c.Duration()
				}
			}
			self[p.Name] += max(d, 0)
		}
	}
	return self
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.MarshalIndent(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
