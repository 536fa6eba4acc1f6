package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Stage names one segment of a request's lifecycle. The serving path records
// a duration per stage into the request's Trace and into per-model
// fixed-bucket histograms, so a slow request can be attributed to sampling,
// rendering or the gateway hop rather than just "it was slow".
type Stage uint8

const (
	// StageInfer is the fold-in Gibbs sampling time of the document's
	// request.
	StageInfer Stage = iota
	// StageRender is the response serialization time (topic lookup + JSON
	// encoding), recorded once per request.
	StageRender
	// StageGateway is the time the serving gateway (srcldagw) spent on a
	// request outside the upstream replica call: routing, admission control,
	// retry/hedge bookkeeping and response copying. Recorded by the gateway
	// process only — replica-side recorders never observe it.
	StageGateway
	// NumStages is the number of traced stages; valid stages are < NumStages.
	NumStages
)

// String returns the stage's metric-label name.
func (s Stage) String() string {
	switch s {
	case StageInfer:
		return "infer"
	case StageRender:
		return "render"
	case StageGateway:
		return "gateway"
	default:
		return fmt.Sprintf("stage-%d", uint8(s))
	}
}

// Stages lists every traced stage in lifecycle order — the iteration order
// for metric registration and rendering.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{StageInfer, StageRender, StageGateway}
}

// ServingStages lists the stages the replica-side serving path (srcldad)
// records — every stage except StageGateway, which only the gateway process
// observes. Replica metric rendering iterates this list so srcldad scrapes
// never carry a permanently empty gateway series.
func ServingStages() []Stage {
	return []Stage{StageInfer, StageRender}
}

// Trace is one request's span context: the request ID plus accumulated
// per-stage durations. A request fanning out into several documents (a
// batch infer) accumulates each document's stage times — the trace then
// reports the total time its documents spent per stage. All state is
// atomic (no locks) and every method is nil-safe, so recording sites never
// need a tracing-enabled check and cost nanoseconds on the hot path.
type Trace struct {
	// ID is the request's X-Request-Id.
	ID string

	model  atomic.Pointer[string]
	stages [NumStages]atomic.Int64
}

// NewTrace starts a trace for the given request ID.
func NewTrace(id string) *Trace { return &Trace{ID: id} }

// Add accumulates d into the stage. No-op on a nil trace or an out-of-range
// stage.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || s >= NumStages {
		return
	}
	t.stages[s].Add(int64(d))
}

// Stage returns the accumulated duration of one stage (0 on a nil trace).
func (t *Trace) Stage(s Stage) time.Duration {
	if t == nil || s >= NumStages {
		return 0
	}
	return time.Duration(t.stages[s].Load())
}

// Durations returns all accumulated stage durations, indexed by Stage.
func (t *Trace) Durations() [NumStages]time.Duration {
	var out [NumStages]time.Duration
	if t == nil {
		return out
	}
	for i := range out {
		out[i] = time.Duration(t.stages[i].Load())
	}
	return out
}

// SetModel records which model served the request (for the access log;
// routing happens after the middleware starts the trace).
func (t *Trace) SetModel(name string) {
	if t == nil {
		return
	}
	t.model.Store(&name)
}

// Model returns the serving model recorded by SetModel ("" when the request
// never resolved to one).
func (t *Trace) Model() string {
	if t == nil {
		return ""
	}
	if p := t.model.Load(); p != nil {
		return *p
	}
	return ""
}

// ctxKey is the private context key type for traces.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the context's trace, or nil when the request is not
// traced (tracing disabled, or an internal caller). All Trace methods are
// nil-safe, so the result can be used unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Request IDs: 16 lowercase hex digits, unique within a process and
// unpredictable across processes. A cryptographically random base drawn at
// startup is combined with a per-request counter through an odd multiplier
// (a bijection over uint64), so IDs never repeat in-process and cost one
// atomic increment on the hot path instead of an entropy read per request.
var (
	reqSeq  atomic.Uint64
	reqBase = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Entropy exhaustion is effectively impossible on supported
			// platforms; fall back to a fixed base (IDs stay unique, just
			// process-predictable).
			return 0x9d5c0fb3a1e64d27
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// NewRequestID returns a fresh 16-hex-digit request ID. Hand-rolled hex
// encoding: this runs once per request, and fmt.Sprintf costs ~20x as much.
func NewRequestID() string {
	const hex = "0123456789abcdef"
	n := reqSeq.Add(1)
	v := reqBase + n*0x9e3779b97f4a7c15
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ValidRequestID reports whether a client-supplied request ID is acceptable
// to propagate; anything else gets a freshly generated ID instead. IDs
// appear in logs and response headers, so the grammar is a conservative
// token alphabet and length — equivalent to ^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$
// but checked without the regexp engine (this too runs per request).
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}
