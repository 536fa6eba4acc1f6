// Command srcldad serves fitted Source-LDA models over HTTP as a
// document-tagging daemon. One process serves many named, versioned model
// bundles (written by `srclda -save-bundle` or sourcelda.SaveBundle)
// concurrently, with zero-downtime hot swaps:
//
//	POST /v1/models/{name}/infer  → labeled topic mixtures per document
//	POST /v1/infer                → same, against the default model
//	POST /v1/models/{name}/feed   → stream documents into a learning model
//	POST /v1/feed                 → same, against the default model
//	GET  /v1/models/{name}/topics → the model's labeled topics with top words
//	GET  /v1/models               → list loaded models
//	PUT  /v1/models/{name}        → load or hot-swap a model (body = bundle)
//	DELETE /v1/models/{name}      → unload a model
//	GET  /metrics                 → per-model serving metrics (Prometheus text)
//	GET  /healthz                 → liveness and queue depth
//	GET  /readyz                  → readiness (503 until a model is loaded)
//
// Models come from -bundle (preloaded as the default model), the admin API,
// or -models-dir (a watched directory: dropping name.bundle in auto-loads
// it as "name"; replacing the file hot-swaps; removing it unloads).
// Hot swaps are atomic and drain the old model behind in-flight requests —
// no request is ever dropped or fails because of a swap.
//
// With -learn-chain the default model keeps learning while it serves: the
// flag loads a chain archive (sourcelda.SaveChainFile), documents POSTed to
// /v1/feed are folded into the live Gibbs chain by a background updater,
// and every -republish-every documents the updated chain is written back
// into -models-dir as a new bundle version, which the watcher hot-swaps.
// See the "Continuous learning" section of docs/OPERATIONS.md.
//
// Incoming text is tokenized server-side against each model's training
// vocabulary; unseen documents are scored by fold-in collapsed Gibbs with
// the trained topic-word statistics locked. Each request's documents are
// scored on the goroutine that received it, a multi-document request spread
// over up to -workers goroutines started for that request; because each
// document draws from a deterministic RNG stream keyed by (seed, content),
// concurrency and swapping never change a response.
//
//	srclda -save-bundle model.bundle
//	srcldad -bundle model.bundle -addr :8080 &
//	curl -s localhost:8080/v1/infer -d '{"text":"pencil ruler notebook"}'
//	curl -sT new.bundle localhost:8080/v1/models/default   # hot swap
//
// See docs/API.md for the endpoint reference and docs/OPERATIONS.md for
// rollout runbooks.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sourcelda"
	"sourcelda/internal/infer"
	"sourcelda/internal/obs"
	"sourcelda/internal/registry"
)

// cliFlags holds every srcldad flag. They are defined through defineFlags
// on an explicit FlagSet so the docs-drift test can enumerate them against
// the flag table in docs/OPERATIONS.md.
type cliFlags struct {
	bundle         *string
	modelsDir      *string
	watchInterval  *time.Duration
	defaultModel   *string
	learnChain     *string
	feedQueue      *int
	republishEvery *int
	compactAfter   *int
	addr           *string
	workers        *int
	burnIn         *int
	samples        *int
	seed           *int64
	topN           *int
	maxDocs        *int
	maxBody        *int64
	adminMaxBody   *int64
	queueSize      *int
	logFormat      *string
	logLevel       *string
	slowRequest    *time.Duration
	debugAddr      *string
	backendID      *string
}

func defineFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		bundle:         fs.String("bundle", "", "serving bundle preloaded as the default model at startup, gzip-JSON or flat (flat is memory-mapped) (default \"\": none; load via -models-dir or the admin API)"),
		modelsDir:      fs.String("models-dir", "", "directory watched for *.bundle files (either format, sniffed by magic): name.bundle auto-loads as model \"name\", changed files hot-swap, removed files unload (default \"\": no watcher)"),
		watchInterval:  fs.Duration("watch-interval", 2*time.Second, "poll interval of the -models-dir watcher (default 2s)"),
		defaultModel:   fs.String("default-model", "default", "model name the unnamed routes /v1/infer and /v1/topics alias (default \"default\")"),
		learnChain:     fs.String("learn-chain", "", "chain archive (sourcelda SaveChainFile; see examples/continuous) served as the default model with continuous learning: POST /v1/feed appends documents to the live chain and republishes into -models-dir (default \"\": feeding disabled)"),
		feedQueue:      fs.Int("feed-queue", 256, "feed ingest queue bound in documents (a batch that would overflow it is rejected whole with 429 and Retry-After)"),
		republishEvery: fs.Int("republish-every", 64, "fed documents between republishes of the learning model (each republish hot-swaps the served build)"),
		compactAfter:   fs.Int("compact-after", 0, "fed documents between compaction retrains of the learning chain (default 0: compaction disabled)"),
		addr:           fs.String("addr", ":8080", "listen address"),
		workers:        fs.Int("workers", 0, "worker goroutines a model spreads one multi-document request over (0 = GOMAXPROCS)"),
		burnIn:         fs.Int("burnin", infer.DefaultBurnIn, "fold-in Gibbs burn-in sweeps per document"),
		samples:        fs.Int("samples", infer.DefaultSamples, "post-burn-in sweeps averaged into each mixture"),
		seed:           fs.Int64("seed", 42, "inference seed (responses are deterministic given model, seed and text)"),
		topN:           fs.Int("top", 5, "top topics returned per document"),
		maxDocs:        fs.Int("max-docs", 64, "maximum documents per request"),
		maxBody:        fs.Int64("max-body", 1<<20, "maximum inference request body bytes"),
		adminMaxBody:   fs.Int64("admin-max-body", 256<<20, "maximum uploaded bundle bytes on PUT /v1/models/{name}"),
		queueSize:      fs.Int("queue", 256, "per-model bound on in-flight documents, admitted and not yet answered (a request that would exceed it is shed whole with 503)"),
		logFormat:      fs.String("log-format", "text", "log output format: \"text\" (key=value lines) or \"json\" (one object per line, for log shippers)"),
		logLevel:       fs.String("log-level", "info", "minimum log level: debug, info, warn or error (per-request access logs are info)"),
		slowRequest:    fs.Duration("slow-request", time.Second, "log a warning with the per-stage latency breakdown for requests slower than this (negative disables)"),
		debugAddr:      fs.String("debug-addr", "", "optional listen address for net/http/pprof and /debug/runtime gauges (default \"\": disabled; never expose publicly)"),
		backendID:      fs.String("backend-id", "", "replica identity echoed as an X-Backend header on every response, for gateway routing audits (default \"\": the hostname; \"none\" omits the header)"),
	}
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if *f.bundle == "" && *f.modelsDir == "" {
		fmt.Fprintln(os.Stderr, "srcldad: provide -bundle and/or -models-dir (train one with: srclda -save-bundle model.bundle)")
		os.Exit(2)
	}
	if *f.workers <= 0 {
		*f.workers = runtime.GOMAXPROCS(0)
	}
	if *f.samples < 1 {
		fmt.Fprintln(os.Stderr, "srcldad: -samples must be at least 1")
		os.Exit(2)
	}
	if *f.burnIn < 0 {
		fmt.Fprintln(os.Stderr, "srcldad: -burnin must be non-negative")
		os.Exit(2)
	}
	if *f.burnIn == 0 {
		// Zero is the facade's "default" sentinel; a negative value is how
		// an explicit zero-burn-in schedule is requested.
		*f.burnIn = -1
	}
	logger, err := obs.NewLogger(os.Stderr, *f.logFormat, *f.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srcldad:", err)
		os.Exit(2)
	}
	// Replica identity for the X-Backend response header: defaults to the
	// hostname (distinct per box in the common one-replica-per-host layout);
	// "none" opts out for deployments that must not leak topology.
	backendID := *f.backendID
	switch backendID {
	case "":
		if host, err := os.Hostname(); err == nil {
			backendID = host
		}
	case "none":
		backendID = ""
	}

	reg := registry.New(registry.Config{
		Infer: sourcelda.InferOptions{
			BurnIn:  *f.burnIn,
			Samples: *f.samples,
			Seed:    *f.seed,
			Workers: *f.workers,
		},
		TopN:         *f.topN,
		MaxDocs:      *f.maxDocs,
		MaxBody:      *f.maxBody,
		AdminMaxBody: *f.adminMaxBody,
		QueueSize:    *f.queueSize,
		DefaultModel: *f.defaultModel,
		Logger:       logger,
		SlowRequest:  *f.slowRequest,
		BackendID:    backendID,
	})

	if *f.bundle != "" {
		// LoadBundleFile sniffs the format: flat bundles are memory-mapped
		// and serve zero-copy, JSON bundles decode as before.
		model, err := sourcelda.LoadBundleFile(*f.bundle)
		exitOn(err)
		res, err := reg.Load(*f.defaultModel, "", model)
		if err != nil {
			model.Close()
			exitOn(err)
		}
		logger.Info("preloaded bundle", "model", res.Name, "version", res.Version, "path", *f.bundle)
	}

	if *f.learnChain != "" {
		if *f.modelsDir == "" {
			fmt.Fprintln(os.Stderr, "srcldad: -learn-chain requires -models-dir (the learner republishes bundles there)")
			os.Exit(2)
		}
		rt, err := sourcelda.LoadChainRuntimeFile(*f.learnChain)
		exitOn(err)
		// The registry's learners stop before the runtime closes (reg.Close
		// runs before this deferred Close), so no updater races a dead chain.
		defer rt.Close()
		exitOn(reg.AttachLearner(*f.defaultModel, rt, registry.LearnerConfig{
			QueueSize:      *f.feedQueue,
			RepublishEvery: *f.republishEvery,
			CompactAfter:   *f.compactAfter,
			ModelsDir:      *f.modelsDir,
		}))
		logger.Info("continuous learning enabled",
			"model", *f.defaultModel, "chain", *f.learnChain,
			"chain_docs", rt.Docs(), "chain_sweeps", rt.Sweeps(),
			"feed_queue", *f.feedQueue, "republish_every", *f.republishEvery,
			"compact_after", *f.compactAfter)
	}

	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	if *f.modelsDir != "" {
		w := registry.NewWatcher(reg, *f.modelsDir, *f.watchInterval)
		// One synchronous scan before the listener starts, so bundles
		// already in the directory serve from the first request. The
		// learner's attach-time publish lands in this scan too, so a
		// -learn-chain model serves immediately.
		if err := w.Scan(); err != nil {
			exitOn(err)
		}
		go w.Run(watchCtx)
	}

	srv := &http.Server{
		Addr:              *f.addr,
		Handler:           registry.NewServer(reg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *f.addr, "models", len(reg.Names()), "default_model", *f.defaultModel)

	// The opt-in debug listener exposes pprof and process runtime gauges
	// (including the mapped-bundle footprint) on a separate address, so the
	// profiling surface never shares a port with production traffic.
	defer obs.ServeDebug(*f.debugAddr, logger, func(w io.Writer) {
		var mapped int64
		for _, mi := range reg.ListInfo() {
			mapped += mi.MappedBytes
		}
		obs.WriteRuntimeMetrics(w, "srcldad", mapped)
	})()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		exitOn(err)
	case <-sigCtx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown failed", "error", err)
	}
	// The registry is closed only after Shutdown has drained in-flight
	// handlers, so no request finds its model unloaded under it.
	stopWatch()
	reg.Close()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
