// End-to-end fault-injection tests: a real gateway in front of real
// in-process replica clusters (package gatewaytest), exercising the
// failure modes the gateway exists for — replica death under load, hangs,
// 503 storms, slow starts and overload. External test package because the
// harness imports the gateway.
package gateway_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sourcelda/internal/gateway"
	"sourcelda/internal/gateway/gatewaytest"
	"sourcelda/internal/obs/obstest"
)

// newGateway builds a gateway over the cluster and serves it; mutate tweaks
// the config before New.
func newGateway(t testing.TB, c *gatewaytest.Cluster, mutate func(*gateway.Config)) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	cfg := gateway.Config{
		Backends:       c.Specs(),
		HealthInterval: 50 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		TryTimeout:     5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return g, ts
}

// do issues one request and returns status, headers and the full body.
func do(t testing.TB, client *http.Client, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// inferBodies are the distinct request payloads the load generators cycle
// through; every one mixes both topics so responses are non-trivial.
var inferBodies = []string{
	`{"documents":["pencil ruler eraser notebook"]}`,
	`{"documents":["baseball umpire pitcher glove"]}`,
	`{"documents":["pencil baseball ruler inning"]}`,
	`{"documents":["notebook paper glove umpire"]}`,
	`{"documents":["eraser inning pencil pitcher"]}`,
	`{"documents":["paper paper baseball baseball"]}`,
	`{"documents":["ruler glove notebook inning"]}`,
	`{"documents":["pitcher eraser umpire paper"]}`,
}

// TestGatewayKillReplicaUnderLoad is the acceptance test: concurrent load
// through a 3-replica gateway while the primary replica for the routed
// model dies abruptly mid-load. Every request must succeed, every response
// must be byte-identical to a direct single-replica run, and the gateway's
// metrics must reconcile exactly with the load generator's counts.
func TestGatewayKillReplicaUnderLoad(t *testing.T) {
	c := gatewaytest.New(t, gatewaytest.Options{Replicas: 3})
	g, ts := newGateway(t, c, func(cfg *gateway.Config) {
		cfg.HealthInterval = 100 * time.Millisecond
		cfg.EjectThreshold = 3
		cfg.EjectBackoff = 100 * time.Millisecond
		// A replica kill fails many concurrent requests at once; the test is
		// about failover, not budget tuning, so make the budget a non-issue.
		cfg.RetryBudgetRatio = 1
		cfg.RetryBudgetBurst = 500
	})
	client := &http.Client{}

	// Oracle: the same bodies served directly by two different replicas must
	// already agree byte-for-byte (inference is deterministic in model, seed
	// and text) — then the gateway is held to the same bytes.
	oracle := make(map[string][]byte, len(inferBodies))
	for _, body := range inferBodies {
		s0, _, b0 := do(t, client, http.MethodPost, c.Replicas[0].URL()+"/v1/infer", body)
		s1, _, b1 := do(t, client, http.MethodPost, c.Replicas[1].URL()+"/v1/infer", body)
		if s0 != http.StatusOK || s1 != http.StatusOK {
			t.Fatalf("direct replica infer: status %d / %d", s0, s1)
		}
		if string(b0) != string(b1) {
			t.Fatalf("replicas disagree on %s:\n%s\nvs\n%s", body, b0, b1)
		}
		oracle[body] = b0
	}

	// One probe request through the gateway identifies the primary replica
	// for the default model — the kill must hit the replica actually taking
	// the traffic, or the test exercises nothing.
	status, hdr, body := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[0])
	if status != http.StatusOK {
		t.Fatalf("probe request: status %d: %s", status, body)
	}
	primary := hdr.Get("X-Backend")
	if c.ByID(primary) == nil {
		t.Fatalf("probe request returned unknown X-Backend %q", primary)
	}

	const workers, perWorker = 8, 30
	total := workers * perWorker
	var completed atomic.Int64
	killAt := int64(total / 6)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for completed.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		c.ByID(primary).Kill()
	}()

	type result struct {
		status int
		body   string
		want   string
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &http.Client{}
			for i := 0; i < perWorker; i++ {
				reqBody := inferBodies[(w*perWorker+i)%len(inferBodies)]
				st, _, data := do(t, cl, http.MethodPost, ts.URL+"/v1/infer", reqBody)
				results[w*perWorker+i] = result{status: st, body: string(data), want: string(oracle[reqBody])}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	<-killed

	bad := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			bad++
			if bad <= 3 {
				t.Errorf("request %d: status %d: %s", i, r.status, r.body)
			}
			continue
		}
		if r.body != r.want {
			bad++
			if bad <= 3 {
				t.Errorf("request %d: body mismatch:\ngot  %s\nwant %s", i, r.body, r.want)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d requests failed or returned wrong bytes across the replica kill", bad, total)
	}

	// Metrics reconciliation against the load generator's own counts: the
	// probe request plus every load request answered 200 (and nothing else),
	// each exactly one successful upstream try, and every failed try is
	// accounted for by exactly one retry.
	issued := uint64(total + 1)
	stats := g.StatsSnapshot()
	if got := stats.Requests[http.StatusOK]; got != issued {
		t.Errorf("srcldagw requests_total{200} = %d, want %d", got, issued)
	}
	for code, n := range stats.Requests {
		if code != http.StatusOK && n != 0 {
			t.Errorf("unexpected client-facing status %d × %d", code, n)
		}
	}
	var ok200, failedTries uint64
	for _, bi := range g.BackendInfos() {
		for code, n := range bi.ByCode {
			if code == "200" {
				ok200 += n
			} else {
				failedTries += n
			}
		}
	}
	if ok200 != issued {
		t.Errorf("sum of backend 200 tries = %d, want %d", ok200, issued)
	}
	if stats.Retries != failedTries {
		t.Errorf("retries_total = %d, want %d (one retry per failed try)", stats.Retries, failedTries)
	}
	if stats.Hedges != 0 {
		t.Errorf("hedges_total = %d, want 0 (hedging disabled)", stats.Hedges)
	}
	if len(stats.Shed) != 0 {
		t.Errorf("requests shed: %v, want none", stats.Shed)
	}

	// The exposition endpoint must carry the reconciled counter.
	st, _, metrics := do(t, client, http.MethodGet, ts.URL+"/metrics", "")
	if st != http.StatusOK {
		t.Fatalf("/metrics: status %d", st)
	}
	obstest.CheckExposition(t, string(metrics))
	wantLine := fmt.Sprintf("srcldagw_requests_total{code=\"200\"} %d", issued)
	if !strings.Contains(string(metrics), wantLine) {
		t.Errorf("/metrics missing %q", wantLine)
	}
}

// TestGatewayHangingReplica: a replica that accepts connections and never
// answers. Hedging keeps client latency bounded from the first affected
// request, and the active prober ejects the replica from routing; when the
// hang clears, it returns.
func TestGatewayHangingReplica(t *testing.T) {
	c := gatewaytest.New(t, gatewaytest.Options{Replicas: 3})
	g, ts := newGateway(t, c, func(cfg *gateway.Config) {
		cfg.HedgeAfter = 50 * time.Millisecond
		cfg.TryTimeout = 5 * time.Second
		cfg.RetryBudgetRatio = 1
		cfg.RetryBudgetBurst = 100
	})
	client := &http.Client{}

	_, hdr, _ := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[0])
	victim := c.ByID(hdr.Get("X-Backend"))
	if victim == nil {
		t.Fatalf("unknown X-Backend %q", hdr.Get("X-Backend"))
	}
	victim.SetHang(true)

	// Every request during the hang must finish far below TryTimeout — the
	// hedge, not the timeout, is what bounds tail latency.
	for i := 0; i < 5; i++ {
		start := time.Now()
		st, h, body := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[i%len(inferBodies)])
		if st != http.StatusOK {
			t.Fatalf("request %d during hang: status %d: %s", i, st, body)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("request %d during hang took %v; hedging should bound it well under TryTimeout", i, d)
		}
		if h.Get("X-Backend") == victim.ID() {
			t.Fatalf("request %d answered by the hung replica", i)
		}
	}
	if s := g.StatsSnapshot(); s.Hedges == 0 {
		t.Error("hedges_total = 0; hung primary should have triggered hedges")
	}

	// The active prober must converge on unhealthy (its probe times out).
	waitFor(t, 5*time.Second, "hung replica marked unhealthy", func() bool {
		for _, bi := range g.BackendInfos() {
			if bi.ID == victim.ID() {
				return !bi.Healthy
			}
		}
		return false
	})
	// Once unhealthy it is out of the candidate set: requests answer without
	// hedging delay.
	st, h, _ := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[0])
	if st != http.StatusOK || h.Get("X-Backend") == victim.ID() {
		t.Fatalf("post-ejection request: status %d backend %q", st, h.Get("X-Backend"))
	}

	victim.SetHang(false)
	waitFor(t, 5*time.Second, "recovered replica marked healthy", func() bool {
		for _, bi := range g.BackendInfos() {
			if bi.ID == victim.ID() {
				return bi.Healthy
			}
		}
		return false
	})
}

// TestGateway503Storm: a replica that stays green on /readyz while failing
// every request — the gray failure only passive ejection can catch. The
// storming replica is ejected after the threshold, clients never see an
// error, and the replica rejoins once the storm clears.
func TestGateway503Storm(t *testing.T) {
	c := gatewaytest.New(t, gatewaytest.Options{Replicas: 3})
	g, ts := newGateway(t, c, func(cfg *gateway.Config) {
		cfg.EjectThreshold = 3
		cfg.EjectBackoff = 100 * time.Millisecond
		cfg.EjectMaxBackoff = 400 * time.Millisecond
		cfg.RetryBudgetRatio = 1
		cfg.RetryBudgetBurst = 100
	})
	client := &http.Client{}

	_, hdr, _ := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[0])
	storming := c.ByID(hdr.Get("X-Backend"))
	if storming == nil {
		t.Fatalf("unknown X-Backend %q", hdr.Get("X-Backend"))
	}
	storming.SetStorm(true)

	for i := 0; i < 20; i++ {
		st, _, body := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[i%len(inferBodies)])
		if st != http.StatusOK {
			t.Fatalf("request %d during storm: status %d: %s", i, st, body)
		}
	}
	var victimInfo *gateway.BackendInfo
	for _, bi := range g.BackendInfos() {
		if bi.ID == storming.ID() {
			bi := bi
			victimInfo = &bi
		}
	}
	if victimInfo == nil {
		t.Fatal("storming backend missing from BackendInfos")
	}
	if victimInfo.Ejections == 0 {
		t.Errorf("storming backend was never passively ejected (503 tries: %d)", victimInfo.ByCode["503"])
	}
	if victimInfo.ByCode["503"] < 3 {
		t.Errorf("storming backend saw %d 503 tries, want >= eject threshold", victimInfo.ByCode["503"])
	}
	if !victimInfo.Healthy {
		t.Error("storm must not affect the active health verdict; that is the point of the gray failure")
	}
	if s := g.StatsSnapshot(); s.Retries == 0 {
		t.Error("retries_total = 0; storm failovers should be retries")
	}

	// Storm over: the next post-backoff trial request succeeds and the
	// replica takes its traffic back.
	storming.SetStorm(false)
	waitFor(t, 5*time.Second, "storming replica taking traffic again", func() bool {
		st, h, _ := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[0])
		return st == http.StatusOK && h.Get("X-Backend") == storming.ID()
	})
}

// TestGatewaySlowStart: a replica that is up but not ready must receive no
// traffic until its /readyz flips — the initial synchronous probe round
// means not even the first request hits it.
func TestGatewaySlowStart(t *testing.T) {
	models := make([]string, 8)
	for i := range models {
		models[i] = fmt.Sprintf("m%d", i)
	}
	c := gatewaytest.New(t, gatewaytest.Options{Replicas: 2, ExtraModels: models})
	slow := c.Replicas[1]
	slow.SetReady(false)

	g, ts := newGateway(t, c, nil)
	client := &http.Client{}

	for _, m := range models {
		st, h, body := do(t, client, http.MethodPost, ts.URL+"/v1/models/"+m+"/infer", inferBodies[0])
		if st != http.StatusOK {
			t.Fatalf("model %s during slow start: status %d: %s", m, st, body)
		}
		if h.Get("X-Backend") == slow.ID() {
			t.Fatalf("model %s routed to the not-ready replica", m)
		}
	}

	slow.SetReady(true)
	waitFor(t, 5*time.Second, "slow replica marked healthy", func() bool {
		for _, bi := range g.BackendInfos() {
			if bi.ID == slow.ID() {
				return bi.Healthy
			}
		}
		return false
	})
	// With both replicas in the ring, the 8 model keys must spread: at least
	// one has the recovered replica as its primary.
	landed := false
	for _, m := range models {
		st, h, _ := do(t, client, http.MethodPost, ts.URL+"/v1/models/"+m+"/infer", inferBodies[0])
		if st == http.StatusOK && h.Get("X-Backend") == slow.ID() {
			landed = true
			break
		}
	}
	if !landed {
		t.Error("no model key routed to the recovered replica; ring is not spreading keys")
	}
}

// TestGatewaySheddingAndLimits: overload and outage degrade gracefully —
// 429 with Retry-After for a rate-limited tenant, 503 with Retry-After when
// no backend is available or every try is exhausted — and the full
// gateway+cluster lifecycle leaks no goroutines.
func TestGatewaySheddingAndLimits(t *testing.T) {
	gatewaytest.TrainBundle(t) // warm the shared bundle before the baseline
	base := runtime.NumGoroutine()

	c := gatewaytest.New(t, gatewaytest.Options{Replicas: 2})
	g, ts := newGateway(t, c, func(cfg *gateway.Config) {
		cfg.TenantRate = 1
		cfg.TenantBurst = 3
		cfg.EjectThreshold = -1 // isolate shedding behavior from ejection
	})
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	// A burst from one tenant: the bucket admits its burst, then sheds with
	// a well-formed Retry-After. A second tenant is unaffected.
	admitted, shed := 0, 0
	for i := 0; i < 10; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", strings.NewReader(inferBodies[0]))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", "acme")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			shed++
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
			}
		default:
			t.Fatalf("tenant burst request %d: status %d", i, resp.StatusCode)
		}
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("tenant burst: %d admitted, %d shed; want both nonzero", admitted, shed)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", strings.NewReader(inferBodies[0]))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "other")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second tenant shed alongside the first: status %d", resp.StatusCode)
	}

	// Every backend storming: tries exhaust and the terminal 503 passes
	// through with a Retry-After.
	for _, r := range c.Replicas {
		r.SetStorm(true)
	}
	st, h, _ := do(t, client, http.MethodGet, ts.URL+"/v1/topics", "")
	if st != http.StatusServiceUnavailable || h.Get("Retry-After") == "" {
		t.Fatalf("all-storm request: status %d Retry-After %q, want 503 with Retry-After", st, h.Get("Retry-After"))
	}

	// Every backend not ready: once the prober notices, requests shed with
	// "no backend" rather than burning tries.
	for _, r := range c.Replicas {
		r.SetStorm(false)
		r.SetReady(false)
	}
	waitFor(t, 5*time.Second, "all backends marked unhealthy", func() bool {
		for _, bi := range g.BackendInfos() {
			if bi.Healthy {
				return false
			}
		}
		return true
	})
	st, h, _ = do(t, client, http.MethodGet, ts.URL+"/v1/topics", "")
	if st != http.StatusServiceUnavailable || h.Get("Retry-After") == "" {
		t.Fatalf("no-backend request: status %d Retry-After %q, want 503 with Retry-After", st, h.Get("Retry-After"))
	}
	stats := g.StatsSnapshot()
	for _, reason := range []string{"rate_limit", "upstream_exhausted", "no_backend"} {
		if stats.Shed[reason] == 0 {
			t.Errorf("shed reason %q never recorded: %v", reason, stats.Shed)
		}
	}

	// Tear the whole tier down and verify the goroutine count returns to the
	// pre-cluster baseline (network teardown is asynchronous; poll).
	ts.Close()
	g.Close()
	for _, r := range c.Replicas {
		r.Close()
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before lifecycle, %d after teardown", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayRequestIDPropagation: a caller-supplied X-Request-Id survives
// the hop to the replica and back; an absent one is minted.
func TestGatewayRequestIDPropagation(t *testing.T) {
	c := gatewaytest.New(t, gatewaytest.Options{Replicas: 2})
	_, ts := newGateway(t, c, nil)
	client := &http.Client{}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", strings.NewReader(inferBodies[0]))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-e2e-propagation-1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-e2e-propagation-1" {
		t.Errorf("X-Request-Id = %q, want the caller's ID echoed", got)
	}
	if resp.Header.Get("X-Backend") == "" {
		t.Error("X-Backend header missing from proxied response")
	}

	st, h, _ := do(t, client, http.MethodPost, ts.URL+"/v1/infer", inferBodies[0])
	if st != http.StatusOK || h.Get("X-Request-Id") == "" {
		t.Errorf("minted X-Request-Id missing: status %d headers %v", st, h)
	}
}
