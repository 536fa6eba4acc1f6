// Command srcldagw is the horizontal serving gateway in front of srcldad
// replicas: one stateless process that makes N single-box model servers
// look like a single, larger, fault-tolerant one.
//
//	GET/POST on /v1/* → routed to a replica and proxied back
//	GET /metrics      → gateway + per-backend metrics (Prometheus text)
//	GET /healthz      → gateway liveness and backend availability
//	GET /readyz       → 503 until at least one backend is available
//
// Model names are consistent-hashed to a replica preference order (bounded
// load, so a hot model spills to ring neighbors); replicas are health
// checked actively (/readyz probes) and ejected passively on consecutive
// failures; failed tries are retried on the next replica under a retry
// budget, optionally hedged on latency; per-tenant token buckets shed
// abusive load with 429 + Retry-After.
//
//	srcldad -bundle model.bundle -addr :8081 -backend-id r1 &
//	srcldad -bundle model.bundle -addr :8082 -backend-id r2 &
//	srcldagw -backends r1=http://127.0.0.1:8081,r2=http://127.0.0.1:8082 -addr :8080
//	curl -s localhost:8080/v1/infer -d '{"text":"pencil ruler notebook"}'
//
// See docs/OPERATIONS.md for the topology, runbooks and alerting, and
// docs/API.md for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sourcelda/internal/gateway"
	"sourcelda/internal/obs"
)

// cliFlags holds every srcldagw flag, defined through defineFlags on an
// explicit FlagSet so the docs-drift test can enumerate them against the
// flag table in docs/OPERATIONS.md.
type cliFlags struct {
	backends       *string
	addr           *string
	defaultModel   *string
	vnodes         *int
	loadFactor     *float64
	healthInterval *time.Duration
	probeTimeout   *time.Duration
	ejectThreshold *int
	ejectBackoff   *time.Duration
	ejectMax       *time.Duration
	tryTimeout     *time.Duration
	maxTries       *int
	retryBudget    *float64
	retryBurst     *float64
	hedgeAfter     *time.Duration
	tenantRate     *float64
	tenantBurst    *float64
	tenantHeader   *string
	maxBody        *int64
	logFormat      *string
	logLevel       *string
	slowRequest    *time.Duration
	debugAddr      *string
}

func defineFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		backends:       fs.String("backends", "", "comma-separated replica list, each id=url (e.g. r1=http://10.0.0.1:8080,r2=http://10.0.0.2:8080); IDs are the consistent-hash identities — keep them stable across restarts and address changes"),
		addr:           fs.String("addr", ":8080", "listen address"),
		defaultModel:   fs.String("default-model", "default", "model name the unnamed routes /v1/infer and /v1/topics are routed by (must match the replicas' -default-model)"),
		vnodes:         fs.Int("vnodes", 160, "virtual nodes per backend on the hash ring"),
		loadFactor:     fs.Float64("load-factor", 1.25, "bounded-load factor: no backend holds more than ceil(factor*(inflight+1)/backends) in-flight requests before a hot model spills to its ring neighbors"),
		healthInterval: fs.Duration("health-interval", 2*time.Second, "active /readyz probe period (negative disables active checking; passive ejection still applies)"),
		probeTimeout:   fs.Duration("probe-timeout", time.Second, "timeout of one active health probe"),
		ejectThreshold: fs.Int("eject-threshold", 5, "consecutive try failures that passively eject a backend (negative disables passive ejection)"),
		ejectBackoff:   fs.Duration("eject-backoff", time.Second, "initial passive-ejection window; doubles per consecutive ejection"),
		ejectMax:       fs.Duration("eject-max-backoff", 30*time.Second, "ceiling of the passive-ejection backoff"),
		tryTimeout:     fs.Duration("try-timeout", 10*time.Second, "timeout of one upstream try (each retry and hedge gets its own)"),
		maxTries:       fs.Int("max-tries", 3, "maximum upstream tries per request: first attempt, retries and hedges together (also capped by the backend count)"),
		retryBudget:    fs.Float64("retry-budget", 0.2, "retry allowance earned per client request; retries and hedges spend from this budget so a failing fleet sees shed load, not a retry storm"),
		retryBurst:     fs.Float64("retry-burst", 10, "cap of the retry-budget bucket"),
		hedgeAfter:     fs.Duration("hedge-after", 0, "launch a tail-latency hedge to the next replica when a try has not answered after this long (default 0: disabled; safe because inference is deterministic and side-effect-free)"),
		tenantRate:     fs.Float64("tenant-rate", 0, "per-tenant admitted requests/second (default 0: no admission control)"),
		tenantBurst:    fs.Float64("tenant-burst", 0, "per-tenant burst size (default 0: twice -tenant-rate)"),
		tenantHeader:   fs.String("tenant-header", "X-Tenant", "request header naming the tenant; requests without it are keyed by client IP"),
		maxBody:        fs.Int64("max-body", 1<<20, "maximum client request body bytes"),
		logFormat:      fs.String("log-format", "text", "log output format: \"text\" (key=value lines) or \"json\" (one object per line, for log shippers)"),
		logLevel:       fs.String("log-level", "info", "minimum log level: debug, info, warn or error (per-request access logs are info)"),
		slowRequest:    fs.Duration("slow-request", time.Second, "log a warning with the upstream/gateway latency breakdown for requests slower than this (negative disables)"),
		debugAddr:      fs.String("debug-addr", "", "optional listen address for net/http/pprof and /debug/runtime gauges (default \"\": disabled; never expose publicly)"),
	}
}

// parseBackends parses the -backends value: comma-separated id=url pairs.
func parseBackends(s string) ([]gateway.BackendSpec, error) {
	var specs []gateway.BackendSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("backend %q: want id=url", part)
		}
		specs = append(specs, gateway.BackendSpec{ID: id, URL: u})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no backends given")
	}
	return specs, nil
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	specs, err := parseBackends(*f.backends)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srcldagw: -backends: %v (example: -backends r1=http://127.0.0.1:8081,r2=http://127.0.0.1:8082)\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *f.logFormat, *f.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srcldagw:", err)
		os.Exit(2)
	}

	g, err := gateway.New(gateway.Config{
		Backends:         specs,
		DefaultModel:     *f.defaultModel,
		VNodes:           *f.vnodes,
		LoadFactor:       *f.loadFactor,
		HealthInterval:   *f.healthInterval,
		ProbeTimeout:     *f.probeTimeout,
		EjectThreshold:   *f.ejectThreshold,
		EjectBackoff:     *f.ejectBackoff,
		EjectMaxBackoff:  *f.ejectMax,
		TryTimeout:       *f.tryTimeout,
		MaxTries:         *f.maxTries,
		RetryBudgetRatio: *f.retryBudget,
		RetryBudgetBurst: *f.retryBurst,
		HedgeAfter:       *f.hedgeAfter,
		TenantRate:       *f.tenantRate,
		TenantBurst:      *f.tenantBurst,
		TenantHeader:     *f.tenantHeader,
		MaxBody:          *f.maxBody,
		Logger:           logger,
		SlowRequest:      *f.slowRequest,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "srcldagw:", err)
		os.Exit(2)
	}
	defer g.Close()

	srv := &http.Server{
		Addr:              *f.addr,
		Handler:           g,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("gateway serving", "addr", *f.addr, "backends", len(specs), "default_model", *f.defaultModel)

	defer obs.ServeDebug(*f.debugAddr, logger, func(w io.Writer) { obs.WriteRuntimeMetrics(w, "srcldagw", -1) })()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown failed", "error", err)
	}
}
