package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers 200 at once, except that its stallAt-th request sleeps
// for stall first. It also tracks how many requests were in flight at once.
type stubServer struct {
	stallAt  int64
	stall    time.Duration
	seen     atomic.Int64
	inflight atomic.Int64
	peak     atomic.Int64
}

func (s *stubServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		p := s.peak.Load()
		if now <= p || s.peak.CompareAndSwap(p, now) {
			break
		}
	}
	io.Copy(io.Discard, r.Body)
	if s.seen.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	w.Write([]byte(`{"result":{}}`))
}

func stubCalls(url string, n int) []Call {
	out := make([]Call, n)
	for i := range out {
		out[i] = Call{URL: url, Body: []byte(`{"text":"x"}`)}
	}
	return out
}

// A 50 ms stall on one connection at 200 requests per second holds up the
// ten requests due behind it. An open loop timed from the due time charges
// them the wait; timing from the send (coordinated omission) would not.
func TestOpenLoopChargesTheWaitBehindAStall(t *testing.T) {
	stub := &stubServer{stallAt: 20, stall: 50 * time.Millisecond}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	lg := &Loadgen{Clients: 1, client: srv.Client()}
	const rate = 200.0
	out := lg.Open(context.Background(), stubCalls(srv.URL, 60), rate)

	var charged, late int
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
		if want := time.Duration(float64(i) / rate * float64(time.Second)); o.Due != want {
			t.Fatalf("request %d due at %v, want %v: the schedule must not depend on responses", i, o.Due, want)
		}
		if i > 19 && i <= 25 {
			// Due 5, 10, … 30 ms into a 50 ms stall: each waits at least 20 ms.
			if o.Latency() >= 20*time.Millisecond {
				charged++
			}
			if o.Lateness() >= 20*time.Millisecond {
				late++
			}
		}
	}
	if charged != 6 || late != 6 {
		t.Errorf("of the 6 requests due in the first 30 ms of the stall, %d were charged ≥ 20 ms and %d reported ≥ 20 ms late; want 6 and 6", charged, late)
	}
	st := Summarize(out)
	if st.Sent != 60 || st.OK != 60 || st.Failed != 0 {
		t.Errorf("counts %+v", st)
	}
	if st.MaxMS < 50 {
		t.Errorf("the stalled request itself took %v ms, want ≥ 50", st.MaxMS)
	}
	if st.P50.N != 60 {
		t.Errorf("p50 must carry its sample count, got %v", st.P50)
	}
	if st.P95.Value != 0 || st.P95.N != 60 {
		t.Errorf("p95 of 60 samples has 3 beyond it and must be refused, got %v", st.P95)
	}
}

func TestClosedLoopUsesAtMostMaxClients(t *testing.T) {
	stub := &stubServer{}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	lg := NewLoadgen(8) // asks for more than the box allows
	defer lg.Close()
	if lg.Clients != MaxClients() || lg.Clients > 2 {
		t.Fatalf("clients = %d, want min(2, nproc) = %d", lg.Clients, MaxClients())
	}
	out, wall := lg.Closed(context.Background(), stubCalls(srv.URL, 200))
	if st := Summarize(out); st.OK != 200 {
		t.Fatalf("%+v", st)
	}
	if peak := stub.peak.Load(); peak > int64(lg.Clients) {
		t.Errorf("%d requests in flight at once from %d clients", peak, lg.Clients)
	}
	if wall <= 0 {
		t.Error("closed loop reports no wall time")
	}
	for i, o := range out {
		if o.Due != o.Sent {
			t.Fatalf("closed-loop request %d: due %v but sent %v", i, o.Due, o.Sent)
		}
	}
}

func TestFailuresAreCountedNotTimed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	lg := NewLoadgen(1)
	defer lg.Close()
	out, _ := lg.Closed(context.Background(), stubCalls(srv.URL, 30))
	st := Summarize(out)
	if st.Failed != 30 || st.OK != 0 || st.FirstErr == nil || st.P50.N != 0 {
		t.Errorf("%+v", st)
	}
}

// OpenUntil keeps to the schedule until stop is closed, sends at least
// minCalls whatever happens, and returns only what it sent.
func TestOpenUntilStopsAfterMinCalls(t *testing.T) {
	stub := &stubServer{}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	lg := &Loadgen{Clients: 2, client: srv.Client()}

	closed := make(chan struct{})
	close(closed)
	out := lg.OpenUntil(context.Background(), stubCalls(srv.URL, 100), 1000, 30, closed)
	if st := Summarize(out); st.Sent < 30 || st.Sent > 31 || st.Failed != 0 || int(stub.seen.Load()) != st.Sent {
		t.Errorf("stop closed from the start, minCalls 30: sent %d (server saw %d), failed %d", st.Sent, stub.seen.Load(), st.Failed)
	}

	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	out = lg.OpenUntil(context.Background(), stubCalls(srv.URL, 1000), 200, 0, stop)
	if n := len(out); n < 10 || n > 40 {
		t.Errorf("100 ms at 200 calls per second should send about 20 calls, sent %d", n)
	}
	for i, o := range out {
		if o.Err != nil || o.Done <= 0 || o.Due != time.Duration(i)*5*time.Millisecond {
			t.Fatalf("outcome %d is not a sent call on the schedule: %+v", i, o)
		}
	}
}
