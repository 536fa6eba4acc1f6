package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sourcelda/internal/obs"
)

// Errors the gateway reports on its own behalf (upstream errors pass
// through with the replica's body).
var (
	// ErrNoBackends means the configuration named no backends.
	ErrNoBackends = errors.New("gateway: no backends configured")
)

// BackendSpec names one replica: a stable ID (the consistent-hash identity —
// keep it fixed across restarts and address changes so the ring does not
// reshuffle) and its base URL.
type BackendSpec struct {
	ID  string
	URL string
}

// Config tunes the gateway. Zero values take the documented defaults.
type Config struct {
	// Backends are the srcldad replicas fronted by this gateway.
	Backends []BackendSpec
	// DefaultModel is the model name the unnamed routes (/v1/infer,
	// /v1/topics) are routed by (default "default"). It must match the
	// replicas' -default-model.
	DefaultModel string
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 160).
	VNodes int
	// LoadFactor is the bounded-load factor c: no backend holds more than
	// ceil(c * (inflight+1) / available) in-flight gateway requests before
	// the ring spills a hot model to its next neighbor (default 1.25).
	LoadFactor float64
	// HealthInterval is the active /readyz probe period (default 2s;
	// negative disables active checking — passive ejection still applies).
	HealthInterval time.Duration
	// ProbeTimeout bounds one active probe (default 1s).
	ProbeTimeout time.Duration
	// EjectThreshold is the consecutive try-failure count that passively
	// ejects a backend (default 5; negative disables passive ejection).
	// Ejection lasts EjectBackoff (default 1s), doubling per consecutive
	// ejection up to EjectMaxBackoff (default 30s); one trial request per
	// backoff window re-probes the backend.
	EjectThreshold  int
	EjectBackoff    time.Duration
	EjectMaxBackoff time.Duration
	// TryTimeout bounds one upstream try (default 10s); MaxTries caps the
	// total tries per request — first attempt, retries and hedges together
	// (default 3, additionally capped by the backend count).
	TryTimeout time.Duration
	MaxTries   int
	// RetryBudgetRatio is the retry allowance earned per client request and
	// RetryBudgetBurst the bucket cap (defaults 0.2 and 10): retries plus
	// hedges never exceed ~20% of request traffic, so a failing fleet sees
	// shed load, not a retry storm.
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// HedgeAfter launches a tail-latency hedge to the next backend when the
	// current try has not answered after this long (default 0: disabled).
	// Safe for this API because inference is deterministic and
	// side-effect-free; first response wins, the loser is canceled.
	HedgeAfter time.Duration
	// TenantRate and TenantBurst configure per-tenant token-bucket admission
	// control (requests/second and burst; default 0: unlimited). TenantHeader
	// names the tenant header (default "X-Tenant"); requests without it are
	// keyed by client IP.
	TenantRate   float64
	TenantBurst  float64
	TenantHeader string
	// MaxBody caps a client request body (default 1 MiB); MaxRespBody caps a
	// buffered upstream response (default 64 MiB — responses are buffered so
	// a replica dying mid-response is retried instead of truncating the
	// client's stream).
	MaxBody     int64
	MaxRespBody int64
	// Logger receives structured events (probe transitions, ejections,
	// access logs); nil discards. SlowRequest mirrors srcldad's flag
	// (default 1s; negative disables).
	Logger      *slog.Logger
	SlowRequest time.Duration
	// Transport overrides the upstream round tripper (tests); nil builds a
	// pooled http.Transport.
	Transport http.RoundTripper
}

func (c *Config) applyDefaults() {
	if c.DefaultModel == "" {
		c.DefaultModel = "default"
	}
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectThreshold == 0 {
		c.EjectThreshold = 5
	}
	if c.EjectBackoff <= 0 {
		c.EjectBackoff = time.Second
	}
	if c.EjectMaxBackoff <= 0 {
		c.EjectMaxBackoff = 30 * time.Second
	}
	if c.TryTimeout <= 0 {
		c.TryTimeout = 10 * time.Second
	}
	if c.MaxTries <= 0 {
		c.MaxTries = 3
	}
	if c.RetryBudgetRatio == 0 {
		c.RetryBudgetRatio = 0.2
	}
	if c.RetryBudgetRatio < 0 {
		c.RetryBudgetRatio = 0
	}
	if c.RetryBudgetBurst <= 0 {
		c.RetryBudgetBurst = 10
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 2 * c.TenantRate
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxRespBody <= 0 {
		c.MaxRespBody = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
}

// Gateway fronts N srcldad replicas: consistent-hash routing of model names
// to replicas with bounded load, health-checked backends with passive
// outlier ejection, per-try timeouts under a retry budget with optional
// hedging, and per-tenant admission control. It implements http.Handler;
// see docs/OPERATIONS.md for the operational story.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	mux      *http.ServeMux
	client   *http.Client
	budget   *retryBudget
	tenants  *tenantLimiter
	inflight atomic.Int64
	start    time.Time

	metrics gwMetrics

	closeOnce  sync.Once
	stopHealth context.CancelFunc
	healthDone chan struct{}
}

// gwMetrics are the gateway-level counters (per-backend counters live on
// each backend).
type gwMetrics struct {
	mu      sync.Mutex
	byCode  map[int]uint64
	shed    map[string]uint64
	retries uint64
	hedges  uint64

	latency *obs.Histogram // end-to-end client request latency
	stage   *obs.Histogram // gateway-overhead portion (obs.StageGateway)
}

// New builds the gateway and, unless active checking is disabled, runs one
// synchronous probe round so routing starts with real readiness instead of
// optimism (a replica still loading its models directory never sees a
// request).
func New(cfg Config) (*Gateway, error) {
	cfg.applyDefaults()
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	ids := make([]string, len(cfg.Backends))
	backends := make([]*backend, len(cfg.Backends))
	seen := make(map[string]bool, len(cfg.Backends))
	for i, spec := range cfg.Backends {
		if spec.ID == "" {
			return nil, fmt.Errorf("gateway: backend %d has an empty ID", i)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("gateway: duplicate backend ID %q", spec.ID)
		}
		seen[spec.ID] = true
		u, err := url.Parse(spec.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q has invalid URL %q (want http(s)://host[:port])", spec.ID, spec.URL)
		}
		u.Path = strings.TrimSuffix(u.Path, "/")
		ids[i] = spec.ID
		backends[i] = newBackend(spec.ID, u)
	}
	g := &Gateway{
		cfg:      cfg,
		backends: backends,
		ring:     newRing(ids, cfg.VNodes),
		mux:      http.NewServeMux(),
		client:   &http.Client{Transport: cfg.Transport},
		budget:   newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		tenants:  newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		start:    time.Now(),
		metrics: gwMetrics{
			byCode:  make(map[int]uint64),
			shed:    make(map[string]uint64),
			latency: obs.NewHistogram(nil),
			stage:   obs.NewHistogram(nil),
		},
		healthDone: make(chan struct{}),
	}
	g.mux.HandleFunc("POST /v1/infer", g.handleRouted)
	g.mux.HandleFunc("POST /v1/models/{name}/infer", g.handleRouted)
	g.mux.HandleFunc("GET /v1/topics", g.handleRouted)
	g.mux.HandleFunc("GET /v1/models/{name}/topics", g.handleRouted)
	g.mux.HandleFunc("GET /v1/models", g.handleModels)
	g.mux.Handle("GET /metrics", obs.MetricsHandler(g.WritePrometheus))
	g.mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux.HandleFunc("GET /readyz", g.handleReady)

	ctx, cancel := context.WithCancel(context.Background())
	g.stopHealth = cancel
	if cfg.HealthInterval > 0 {
		g.probeAll(ctx)
		go g.healthLoop(ctx)
	} else {
		// No active signal: every backend starts healthy and only passive
		// ejection gates it.
		for _, b := range g.backends {
			b.healthy.Store(true)
		}
		close(g.healthDone)
	}
	return g, nil
}

// Close stops the health checker and releases idle upstream connections.
// In-flight requests finish normally (their tries hold their own contexts).
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		g.stopHealth()
		<-g.healthDone
		if tr, ok := g.cfg.Transport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	})
}

// gwWriter is the per-request tracking struct: status capture, the trace
// span, and the proxy facts the access log reports. One allocation per
// request, mirroring the registry's statusWriter.
type gwWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	trace  obs.Trace

	backend  string
	model    string
	tries    int
	retries  int
	hedges   int
	upstream time.Duration
}

func (gw *gwWriter) WriteHeader(code int) {
	if !gw.wrote {
		gw.status = code
		gw.wrote = true
	}
	gw.ResponseWriter.WriteHeader(code)
}

func (gw *gwWriter) Write(p []byte) (int, error) {
	gw.wrote = true
	return gw.ResponseWriter.Write(p)
}

// ServeHTTP is the tracing middleware: resolve or mint an X-Request-Id,
// echo it before the handler runs, and emit one access-log event per
// request with the routing breakdown (backend, tries, retries, hedges,
// upstream vs gateway time).
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-Id")
	if !obs.ValidRequestID(id) {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	gw := &gwWriter{ResponseWriter: w, status: http.StatusOK}
	gw.trace.ID = id
	start := time.Now()
	g.mux.ServeHTTP(gw, r)
	dur := time.Since(start)

	slow := g.cfg.SlowRequest
	isSlow := slow > 0 && dur >= slow
	level, msg := slog.LevelInfo, "request"
	if isSlow {
		level, msg = slog.LevelWarn, "slow request"
	}
	lg := g.cfg.Logger
	if !lg.Enabled(r.Context(), level) {
		return
	}
	attrs := []any{
		"request_id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", gw.status,
		"duration_ms", durMillis(dur),
	}
	if gw.tries > 0 {
		attrs = append(attrs,
			"backend", gw.backend,
			"model", gw.model,
			"tries", gw.tries,
			"retries", gw.retries,
			"hedges", gw.hedges,
			"upstream_ms", durMillis(gw.upstream),
			"gateway_ms", durMillis(gw.trace.Stage(obs.StageGateway)),
		)
	}
	if isSlow {
		attrs = append(attrs, "threshold_ms", durMillis(slow))
	}
	lg.Log(r.Context(), level, msg, attrs...)
}

func durMillis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// handleRouted proxies the model-keyed routes: consistent-hash the model
// name to a replica preference order and run the try loop over it.
func (g *Gateway) handleRouted(w http.ResponseWriter, r *http.Request) {
	model := r.PathValue("name")
	if model == "" {
		model = g.cfg.DefaultModel
	}
	if gw, ok := w.(*gwWriter); ok {
		gw.model = model
	}
	g.proxy(w, r, g.candidates(model))
}

// handleModels proxies the un-keyed listing route to the least-loaded
// available backend (every replica answers it; no ring key applies).
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	cands := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.available(now) {
			cands = append(cands, b)
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].inflight.Load() < cands[j-1].inflight.Load(); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	g.proxy(w, r, cands)
}

// candidates returns the try order for a model key: the ring's preference
// order restricted to available backends, partitioned so backends under the
// bounded-load cap come first (a hot model spills to ring neighbors instead
// of pinning its primary). When every backend is unhealthy or ejected, the
// healthy-but-ejected ones are returned as trial candidates — the passive
// re-probe path — so a fully-ejected pool degrades to best-effort rather
// than a hard outage.
func (g *Gateway) candidates(key string) []*backend {
	order := g.ring.order(key)
	now := time.Now()
	idxAvail := make([]int, 0, len(order))
	for _, i := range order {
		if g.backends[i].available(now) {
			idxAvail = append(idxAvail, i)
		}
	}
	if len(idxAvail) == 0 {
		out := make([]*backend, 0, len(order))
		for _, i := range order {
			if g.backends[i].healthy.Load() {
				out = append(out, g.backends[i])
			}
		}
		return out
	}
	cap := boundedCap(int(g.inflight.Load()), len(idxAvail), g.cfg.LoadFactor)
	under := make([]*backend, 0, len(idxAvail))
	var over []*backend
	for _, i := range idxAvail {
		b := g.backends[i]
		if int(b.inflight.Load()) < cap {
			under = append(under, b)
		} else {
			over = append(over, b)
		}
	}
	return append(under, over...)
}

// upstream is one try's outcome. code is the per-backend metric label:
// the HTTP status, or a transport sentinel ("error", "timeout",
// "canceled" — canceled means the gateway itself abandoned the try, which
// must never count against the backend).
type upstream struct {
	b       *backend
	status  int
	header  http.Header
	body    []byte
	err     error
	code    string
	dur     time.Duration
	hedged  bool
	started time.Time
}

// retryableStatus reports whether an upstream status may be retried on
// another replica: transient server-side conditions only. 503 is the
// replicas' load-shed signal, so a retry elsewhere is exactly right; 4xx
// are the client's fault and identical everywhere.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// proxy runs the full try loop for one client request over the candidate
// backends: admission control, body buffering, per-try timeouts, budgeted
// retries on retryable failures, budgeted hedging on latency, passive
// ejection bookkeeping, and response copy-out. Every terminal path records
// the client-facing status exactly once.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, cands []*backend) {
	startReq := time.Now()
	gw, _ := w.(*gwWriter)
	status := g.serveProxy(w, r, gw, cands, startReq)
	total := time.Since(startReq)
	var up time.Duration
	if gw != nil {
		up = gw.upstream
	}
	overhead := total - up
	if overhead < 0 {
		overhead = 0
	}
	if gw != nil {
		gw.trace.Add(obs.StageGateway, overhead)
	}
	g.metrics.latency.Observe(total.Seconds())
	g.metrics.stage.Observe(overhead.Seconds())
	g.metrics.mu.Lock()
	g.metrics.byCode[status]++
	if gw != nil {
		g.metrics.retries += uint64(gw.retries)
		g.metrics.hedges += uint64(gw.hedges)
	}
	g.metrics.mu.Unlock()
}

func (g *Gateway) serveProxy(w http.ResponseWriter, r *http.Request, gw *gwWriter, cands []*backend, startReq time.Time) int {
	// Admission control rejects before the body is read: a rate-limited
	// tenant must not cost body buffering, let alone an upstream try.
	if ok, after := g.tenants.admit(g.tenant(r), startReq); !ok {
		g.recordShed("rate_limit")
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(after)))
		return writeError(w, gw, http.StatusTooManyRequests, "tenant rate limit exceeded")
	}

	// Buffer the request body so a retry or hedge can resend it.
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
		if err != nil {
			var maxErr *http.MaxBytesError
			switch {
			case errors.As(err, &maxErr):
				return writeError(w, gw, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			case r.Context().Err() != nil:
				return writeError(w, gw, 499, "client closed request")
			default:
				return writeError(w, gw, http.StatusBadRequest, "failed to read request body")
			}
		}
	}

	if len(cands) == 0 {
		g.recordShed("no_backend")
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(g.cfg.HealthInterval)))
		return writeError(w, gw, http.StatusServiceUnavailable, "no available backend")
	}
	if len(cands) > g.cfg.MaxTries {
		cands = cands[:g.cfg.MaxTries]
	}
	g.budget.earn()

	uri := r.URL.RequestURI()
	ctype := r.Header.Get("Content-Type")
	reqID := ""
	if gw != nil {
		reqID = gw.trace.ID
	}

	ch := make(chan upstream, len(cands))
	cancels := make([]context.CancelFunc, 0, len(cands))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	next := 0
	launch := func(hedged bool) bool {
		if next >= len(cands) {
			return false
		}
		b := cands[next]
		next++
		tctx, cancel := context.WithTimeout(r.Context(), g.cfg.TryTimeout)
		cancels = append(cancels, cancel)
		go func() {
			u := g.try(tctx, b, r.Method, uri, ctype, reqID, body)
			u.hedged = hedged
			ch <- u
		}()
		return true
	}
	launch(false)
	pending := 1

	var hedgeTimer *time.Timer
	var hedgeCh <-chan time.Time
	if g.cfg.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(g.cfg.HedgeAfter)
		hedgeCh = hedgeTimer.C
		defer hedgeTimer.Stop()
	}

	var last upstream
	for pending > 0 {
		select {
		case u := <-ch:
			pending--
			if u.err == nil && !retryableStatus(u.status) {
				// Terminal response — 2xx, or a 4xx that is the client's
				// fault and identical on every replica. Either way the
				// backend answered coherently.
				u.b.noteSuccess()
				return g.writeUpstream(w, gw, u)
			}
			last = u
			g.noteTryFailure(u)
			if r.Context().Err() != nil {
				return writeError(w, gw, 499, "client closed request")
			}
			if g.budget.spend() {
				if launch(false) {
					pending++
					if gw != nil {
						gw.retries++
					}
				}
			}
		case <-hedgeCh:
			if g.budget.spend() && launch(true) {
				pending++
				if gw != nil {
					gw.hedges++
				}
				hedgeTimer.Reset(g.cfg.HedgeAfter)
			} else {
				hedgeCh = nil
			}
		}
	}

	// Every try failed. Pass a coherent upstream response through (its body
	// names the real condition); map transport-level failures to gateway
	// errors.
	switch {
	case last.status != 0:
		if last.status == http.StatusServiceUnavailable {
			g.recordShed("upstream_exhausted")
			w.Header().Set("Retry-After", "1")
		}
		return g.writeUpstream(w, gw, last)
	case last.code == "timeout":
		return writeError(w, gw, http.StatusGatewayTimeout,
			fmt.Sprintf("upstream timeout after %d tries", next))
	default:
		return writeError(w, gw, http.StatusBadGateway,
			fmt.Sprintf("upstream unreachable after %d tries", next))
	}
}

// noteTryFailure applies one failed try to the backend's passive-ejection
// state. Canceled tries (hedge losers, client disconnects) are neutral —
// the gateway abandoned them; the backend did nothing wrong.
func (g *Gateway) noteTryFailure(u upstream) {
	if u.code == "canceled" {
		return
	}
	if u.b.noteFailure(time.Now(), g.cfg.EjectThreshold, g.cfg.EjectBackoff, g.cfg.EjectMaxBackoff) {
		g.cfg.Logger.Warn("backend ejected",
			"backend", u.b.id, "code", u.code, "consecutive_failures", g.cfg.EjectThreshold)
	}
}

// try performs one upstream attempt: bounded by its context, response fully
// buffered (a replica dying mid-body becomes a retryable error, never a
// truncated client response), per-backend accounting on every path.
func (g *Gateway) try(ctx context.Context, b *backend, method, uri, ctype, reqID string, body []byte) upstream {
	g.inflight.Add(1)
	b.inflight.Add(1)
	defer g.inflight.Add(-1)
	defer b.inflight.Add(-1)

	u := upstream{b: b, started: time.Now()}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url.String()+uri, rd)
	if err != nil {
		u.err, u.code = err, "error"
		b.recordTry(u.code, 0)
		return u
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		u.dur = time.Since(u.started)
		u.err, u.code = err, transportCode(ctx, err)
		b.recordTry(u.code, u.dur)
		return u
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxRespBody+1))
	resp.Body.Close()
	u.dur = time.Since(u.started)
	if rerr != nil {
		u.err, u.code = rerr, transportCode(ctx, rerr)
		b.recordTry(u.code, u.dur)
		return u
	}
	if int64(len(data)) > g.cfg.MaxRespBody {
		u.err = fmt.Errorf("upstream response exceeds %d bytes", g.cfg.MaxRespBody)
		u.code = "error"
		b.recordTry(u.code, u.dur)
		return u
	}
	u.status = resp.StatusCode
	u.header = resp.Header
	u.body = data
	u.code = codeLabel(resp.StatusCode)
	b.recordTry(u.code, u.dur)
	return u
}

// transportCode classifies a transport error for the per-backend code
// label: "timeout" (the try's own deadline), "canceled" (the gateway or
// client abandoned the try — never the backend's fault), or "error".
func transportCode(ctx context.Context, err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled) || ctx.Err() == context.Canceled:
		return "canceled"
	default:
		return "error"
	}
}

// writeUpstream copies a buffered upstream response to the client:
// status, body, Content-Type, and the replica's X-Backend identity.
func (g *Gateway) writeUpstream(w http.ResponseWriter, gw *gwWriter, u upstream) int {
	if gw != nil {
		gw.backend = u.b.id
		gw.upstream = u.dur
		gw.tries++
	}
	if ct := u.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if id := u.header.Get("X-Backend"); id != "" {
		w.Header().Set("X-Backend", id)
	} else {
		w.Header().Set("X-Backend", u.b.id)
	}
	w.WriteHeader(u.status)
	w.Write(u.body)
	return u.status
}

// tenant resolves the admission-control key: the tenant header when
// present, otherwise the client IP (per-IP fairness for anonymous traffic).
func (g *Gateway) tenant(r *http.Request) string {
	if t := r.Header.Get(g.cfg.TenantHeader); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (g *Gateway) recordShed(reason string) {
	g.metrics.mu.Lock()
	g.metrics.shed[reason]++
	g.metrics.mu.Unlock()
}

// writeError renders a gateway-origin JSON error, echoing the request ID
// like the replicas do.
func writeError(w http.ResponseWriter, gw *gwWriter, status int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := fmt.Sprintf("{\"error\":%q", msg)
	if gw != nil && gw.trace.ID != "" {
		body += fmt.Sprintf(",\"request_id\":%q", gw.trace.ID)
	}
	body += "}\n"
	io.WriteString(w, body)
	return status
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	avail := 0
	for _, b := range g.backends {
		if b.available(now) {
			avail++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\"status\":\"ok\",\"backends\":%d,\"available\":%d,\"uptime_seconds\":%g}\n",
		len(g.backends), avail, time.Since(g.start).Seconds())
}

// handleReady mirrors the replicas' readiness semantics one level up: the
// gateway is ready once at least one backend can take traffic.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	avail := 0
	for _, b := range g.backends {
		if b.available(now) {
			avail++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	state := "ready"
	if avail == 0 {
		status = http.StatusServiceUnavailable
		state = "unavailable"
	}
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"status\":%q,\"backends\":%d,\"available\":%d}\n", state, len(g.backends), avail)
}

// BackendInfos snapshots every backend's state, in configuration order.
func (g *Gateway) BackendInfos() []BackendInfo {
	now := time.Now()
	out := make([]BackendInfo, len(g.backends))
	for i, b := range g.backends {
		out[i] = b.info(now)
	}
	return out
}

// Stats is a point-in-time copy of the gateway-level counters.
type Stats struct {
	// Requests counts client-facing proxied requests by terminal status.
	Requests map[int]uint64
	// Shed counts rejected requests by reason: "rate_limit" (admission
	// control), "no_backend" (nothing available), "upstream_exhausted"
	// (every try answered 503).
	Shed map[string]uint64
	// Retries and Hedges count extra upstream tries by trigger.
	Retries uint64
	Hedges  uint64
	// Latency is end-to-end client latency; GatewayStage is the portion
	// spent in the gateway itself (total minus upstream).
	Latency      obs.HistogramSnapshot
	GatewayStage obs.HistogramSnapshot
}

// StatsSnapshot copies the gateway-level counters.
func (g *Gateway) StatsSnapshot() Stats {
	s := Stats{
		Latency:      g.metrics.latency.Snapshot(),
		GatewayStage: g.metrics.stage.Snapshot(),
	}
	g.metrics.mu.Lock()
	s.Requests = make(map[int]uint64, len(g.metrics.byCode))
	for c, n := range g.metrics.byCode {
		s.Requests[c] = n
	}
	s.Shed = make(map[string]uint64, len(g.metrics.shed))
	for r, n := range g.metrics.shed {
		s.Shed[r] = n
	}
	s.Retries = g.metrics.retries
	s.Hedges = g.metrics.hedges
	g.metrics.mu.Unlock()
	return s
}
