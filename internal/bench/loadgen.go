package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxClients is the generator's ceiling on connections and sending
// goroutines: the box has two cores and the servers under test need them.
func MaxClients() int { return min(2, runtime.NumCPU()) }

// Call is one POST of a pre-built body. The sequence of calls is generated
// from the seed before the phase starts and is bounded by count, never by
// time, so every run of a seed sends identical bytes.
type Call struct {
	URL  string
	Body []byte
}

// Outcome is what happened to one call. Times are offsets from the phase
// start. In a closed loop Due equals Sent.
type Outcome struct {
	Due, Sent, Done time.Duration
	Status          int
	Body            []byte // nil unless Loadgen.KeepBodies
	Err             error
}

// Latency is measured from when the call was due, not from when it was
// sent: a request that waited behind a stalled one is charged that wait.
func (o Outcome) Latency() time.Duration { return o.Done - o.Due }

// Lateness is how long after its due time the generator got to send it.
func (o Outcome) Lateness() time.Duration { return o.Sent - o.Due }

// Loadgen sends calls over at most Clients keep-alive connections, one
// request in flight per connection.
type Loadgen struct {
	Clients    int
	KeepBodies bool
	// Accept decides whether a response counts as served; nil accepts any
	// 200. It runs on the sending goroutine, so keep it cheap.
	Accept func(status int, body []byte) error
	// Trace, when set, records a loadgen.request span per call and sends
	// its operation id as the X-Request-Id, which the gateway forwards and
	// the handler wrappers of the traced run read back.
	Trace *Tracer

	client *http.Client
}

// NewLoadgen builds a generator with its own connection pool of `clients`
// connections per host (clamped to MaxClients).
func NewLoadgen(clients int) *Loadgen {
	clients = max(1, min(clients, MaxClients()))
	return &Loadgen{
		Clients: clients,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
}

// Close drops the generator's idle connections.
func (g *Loadgen) Close() { g.client.CloseIdleConnections() }

// Open sends calls on a fixed schedule of rate per second regardless of how
// fast the server answers (independent users). Call i is due at i/rate; a
// sender that finds every connection busy sends it late, and the lateness
// is part of its latency.
func (g *Loadgen) Open(ctx context.Context, calls []Call, rate float64) []Outcome {
	return g.OpenUntil(ctx, calls, rate, 0, nil)
}

// OpenUntil is Open that stops early: once stop is closed and at least
// minCalls calls have been sent, no further call is sent, and only the
// outcomes of the calls that were sent are returned. It measures a service
// for as long as something else goes on beside it; the bytes sent are still
// a prefix of the seed's fixed sequence.
func (g *Loadgen) OpenUntil(ctx context.Context, calls []Call, rate float64, minCalls int, stop <-chan struct{}) []Outcome {
	interval := time.Duration(float64(time.Second) / rate)
	out := g.run(ctx, calls, func(i int) time.Duration { return time.Duration(i) * interval }, minCalls, stop)
	sent := out[:0]
	for _, o := range out {
		if o.Done > 0 {
			sent = append(sent, o)
		}
	}
	return sent
}

// Closed sends each client's next call only after its previous one completed
// (callers that wait for a reply). It also returns the phase's wall time.
func (g *Loadgen) Closed(ctx context.Context, calls []Call) ([]Outcome, time.Duration) {
	start := time.Now()
	out := g.run(ctx, calls, nil, 0, nil)
	return out, time.Since(start)
}

// run sends the calls; a call that finds stop closed when it comes due, with
// minCalls already claimed, is not sent and keeps a zero Outcome.
func (g *Loadgen) run(ctx context.Context, calls []Call, due func(i int) time.Duration, minCalls int, stop <-chan struct{}) []Outcome {
	out := make([]Outcome, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				o := &out[i]
				if due != nil {
					o.Due = due(i)
					sleepUntil(ctx, start, o.Due)
				}
				if i >= minCalls {
					select {
					case <-stop:
						return
					default:
					}
				}
				o.Sent = time.Since(start)
				if due == nil {
					o.Due = o.Sent
				}
				op := g.Trace.NewOp()
				end := g.Trace.Begin(op, "loadgen.request", "", i)
				o.Status, o.Body, o.Err = g.post(ctx, calls[i], op)
				end()
				o.Done = time.Since(start)
				if !g.KeepBodies {
					o.Body = nil
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// fineWindow is how much of a wait is left to fineSleep, which cannot be
// cancelled; the rest is an ordinary timer.
const fineWindow = 2 * time.Millisecond

// sleepUntil waits until due has elapsed since start, or ctx ends.
func sleepUntil(ctx context.Context, start time.Time, due time.Duration) {
	if wait := due - time.Since(start) - fineWindow; wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return
		}
	}
	if wait := due - time.Since(start); wait > 0 {
		fineSleep(wait)
	}
}

// opHeader carries a trace operation id between the generator and the
// wrapped handlers.
const opHeaderPrefix = "bench-op-"

func (g *Loadgen) post(ctx context.Context, c Call, op int64) (int, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, bytes.NewReader(c.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if g.Trace != nil {
		req.Header.Set("X-Request-Id", opHeaderPrefix+strconv.FormatInt(op, 10))
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if g.Accept != nil {
		return resp.StatusCode, body, g.Accept(resp.StatusCode, body)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, body, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return resp.StatusCode, body, nil
}

// PhaseStats summarises one phase's outcomes. Latency percentiles obey the
// ten-beyond rule; P50 and P95 are medians over consecutive windows of the
// phase, Tail is the highest of p99/p95/p90 the whole sample supports.
type PhaseStats struct {
	Sent, OK, Failed int
	P50, P95, Tail   Quantile
	MaxMS            float64
	LatenessP99MS    float64 // highest supported lateness percentile, ms
	FirstErr         error
}

// Summarize computes PhaseStats over outcomes; latencies are in ms and only
// successful calls contribute to them (failures are counted, not timed).
func Summarize(outcomes []Outcome) PhaseStats {
	st := PhaseStats{Sent: len(outcomes)}
	lat := make([]float64, 0, len(outcomes))
	late := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		late = append(late, float64(o.Lateness())/float64(time.Millisecond))
		if o.Err != nil {
			st.Failed++
			if st.FirstErr == nil {
				st.FirstErr = o.Err
			}
			continue
		}
		st.OK++
		ms := float64(o.Latency()) / float64(time.Millisecond)
		lat = append(lat, ms)
		st.MaxMS = max(st.MaxMS, ms)
	}
	st.P50, _ = WindowedPercentile(lat, 0.50) // lat is still in due order here
	st.P95, _ = WindowedPercentile(lat, 0.95)
	st.Tail, _ = HighestPercentile(lat, 0.99, 0.95, 0.90)
	if q, err := HighestPercentile(late, 0.99, 0.95, 0.90); err == nil {
		st.LatenessP99MS = q.Value
	}
	return st
}
