// Command srcldactl runs distributed AD-LDA-style Source-LDA training: one
// coordinator process partitions the corpus across N worker processes, each
// running local Gibbs sweeps against a stale snapshot of the global
// topic-word counts, with count deltas merged at sync boundaries.
//
//	-role coordinator  listens for workers, drives the epoch schedule,
//	                   merges deltas, assembles and saves the final chain
//	-role worker       dials the coordinator, trains its assigned shard,
//	                   checkpoints every sync boundary locally
//
// Both roles load the same corpus (verified by digest at join). A 1-worker
// run with -staleness 0 reproduces the serial srclda chain bit for bit;
// more workers trade sampling exactness for wall-clock scaling. Workers
// may die at any instant: the coordinator hands the shard to the next
// worker that connects, which resumes from the lost worker's last
// sync-boundary checkpoint, keeping the run's trajectory — and its final
// digest — unchanged.
//
//	srcldactl -role coordinator -workers 2 -epochs 100 -listen :7600 &
//	srcldactl -role worker -connect localhost:7600 -checkpoint-dir w1/ &
//	srcldactl -role worker -connect localhost:7600 -checkpoint-dir w2/ &
//
// See docs/OPERATIONS.md ("Distributed training") for the topology,
// worker-loss runbook and the full flag table.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sourcelda"
	"sourcelda/cmd/internal/traincli"
	"sourcelda/internal/corpus"
	"sourcelda/internal/dtrain"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/obs"
	"sourcelda/internal/persist"
)

// cliFlags holds every srcldactl flag, defined through defineFlags on an
// explicit FlagSet so the docs-drift test can enumerate them against the
// flag table in docs/OPERATIONS.md.
type cliFlags struct {
	role      *string
	corpusDir *string
	sourceDir *string
	seed      *int64

	// Coordinator: topology and schedule.
	listen    *string
	workers   *int
	epochs    *int
	staleness *int
	// Coordinator: chain shape (shipped to workers in the assign message).
	freeT   *int
	mu      *float64
	sigma   *float64
	lambda  *float64
	sampler *string
	shards  *int
	threads *int
	// Coordinator: fault detectors and outputs.
	ioTimeout    *time.Duration
	epochTimeout *time.Duration
	joinTimeout  *time.Duration
	saveCkpt     *string
	telemetryLog *string
	metricsAddr  *string

	// Worker.
	connect    *string
	ckptDir    *string
	ckptRetain *int
	workerID   *string

	logFormat *string
	logLevel  *string
	debugAddr *string
}

func defineFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		role:         fs.String("role", "coordinator", "process role: coordinator (listens, merges, assembles) or worker (dials, trains a shard)"),
		corpusDir:    fs.String("corpus", "", "directory of *.txt documents, one file per document; every worker and the coordinator must load identical data — verified by digest at join (default \"\": built-in synthetic demo corpus)"),
		sourceDir:    fs.String("source", "", "directory of *.txt knowledge articles, file name = topic label (default \"\": built-in synthetic demo source)"),
		seed:         fs.Int64("seed", 42, "base chain seed; worker shard i trains with seed+i, so identical inputs, partition and seed reproduce a run bit for bit (default 42)"),
		listen:       fs.String("listen", ":7600", "coordinator listen address for worker connections"),
		workers:      fs.Int("workers", 2, "coordinator: shard count N; every sync epoch waits for all N shards (default 2)"),
		epochs:       fs.Int("epochs", 100, "coordinator: sync boundaries to run; total sweeps per worker is epochs × max(1, staleness) (default 100)"),
		staleness:    fs.Int("staleness", 1, "coordinator: local sweeps each worker runs between sync boundaries; higher is faster but samples against staler counts (0 means 1) (default 1)"),
		freeT:        fs.Int("free", 5, "coordinator: unlabeled (free) topics learned alongside the knowledge source (default 5)"),
		mu:           fs.Float64("mu", 0.7, "coordinator: mean of the N(µ,σ) prior over the λ divergence exponent (default 0.7)"),
		sigma:        fs.Float64("sigma", 0.3, "coordinator: std dev of the λ prior, must be >= 0 (default 0.3)"),
		lambda:       fs.Float64("lambda", -1, "coordinator: fixed λ exponent in [0,1]; -1 integrates λ out by quadrature (default -1)"),
		sampler:      fs.String("sampler", "serial", "coordinator: per-token sampling kernel every worker uses: auto, serial, or sparse, as in srclda; auto is the dense serial scan (default serial)"),
		shards:       fs.Int("shards", 0, "coordinator: document shards each worker sweeps concurrently inside its partition; the count shapes the chain; 0 sweeps each partition sequentially (default 0)"),
		threads:      fs.Int("threads", 1, "coordinator: in-worker threads sweeping the -shards document shards; a resource bound that never changes the chain, ignored without -shards (default 1)"),
		ioTimeout:    fs.Duration("io-timeout", 30*time.Second, "coordinator: bound on each control-frame read/write — handshakes and count broadcasts (default 30s)"),
		epochTimeout: fs.Duration("epoch-timeout", 5*time.Minute, "coordinator: how long to wait for one shard's epoch delta before declaring the worker hung and reassigning its shard (default 5m)"),
		joinTimeout:  fs.Duration("join-timeout", 5*time.Minute, "coordinator: how long to wait for a worker to connect when a shard needs one (default 5m)"),
		saveCkpt:     fs.String("save-checkpoint", "", "coordinator: write the assembled full-corpus chain as a checkpoint file srclda can -resume from (default \"\": don't)"),
		telemetryLog: fs.String("telemetry-log", "", "coordinator: append one JSON object per merged sync epoch (latency, merge bytes, worker lag, throughput) to this file (default \"\": off)"),
		metricsAddr:  fs.String("metrics-addr", "", "coordinator: optional listen address serving live srcldactl_* training gauges as Prometheus text (default \"\": off)"),
		connect:      fs.String("connect", "localhost:7600", "worker: coordinator address to dial"),
		ckptDir:      fs.String("checkpoint-dir", "dtrain-checkpoints", "worker: root directory for per-shard sync-boundary checkpoints; a replacement worker must see the same root to resume a lost shard (default dtrain-checkpoints)"),
		ckptRetain:   fs.Int("checkpoint-retain", 3, "worker: newest boundary checkpoints kept per shard; negative keeps all (default 3)"),
		workerID:     fs.String("worker-id", "", "worker: name used in coordinator logs (default \"\": host:pid)"),
		logFormat:    fs.String("log-format", "text", "log output format: \"text\" (key=value lines) or \"json\" (one object per line, for log shippers)"),
		logLevel:     fs.String("log-level", "info", "minimum log level: debug, info, warn or error (per-epoch worker progress is debug)"),
		debugAddr:    fs.String("debug-addr", "", "optional listen address for net/http/pprof and /debug/runtime gauges (default \"\": disabled; never expose publicly)"),
	}
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *f.logFormat, *f.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srcldactl:", err)
		os.Exit(2)
	}
	defer obs.ServeDebug(*f.debugAddr, logger, func(w io.Writer) { obs.WriteRuntimeMetrics(w, "srcldactl", -1) })()

	c, src, err := traincli.LoadData(*f.corpusDir, *f.sourceDir, *f.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *f.role {
	case "coordinator":
		err = runCoordinator(ctx, f, c, src, logger)
	case "worker":
		err = runWorker(ctx, f, c, src, logger)
	default:
		fmt.Fprintf(os.Stderr, "srcldactl: unknown -role %q (want coordinator or worker)\n", *f.role)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// specFromFlags builds the chain configuration the coordinator ships to
// every worker: the chain flags go through the mapping srclda trains under
// (traincli.ChainOptions, sourcelda.CoreOptions) and the spec is its result
// spelt for the wire, so a 1-worker chain is the one srclda would train and
// the saved checkpoint resumes there under the same flags (TestSpecFromFlags
// holds the spec's digest to the mapping's). Threads, a per-worker resource
// bound no digest hashes, is the flag as given.
func specFromFlags(f *cliFlags, c *corpus.Corpus, src *knowledge.Source) (dtrain.ChainSpec, error) {
	opts, err := traincli.ChainOptions(*f.freeT, *f.lambda, *f.mu, *f.sigma, *f.sampler, *f.shards, *f.threads, *f.seed)
	if err != nil {
		return dtrain.ChainSpec{}, err
	}
	o, err := sourcelda.CoreOptions(sourcelda.WrapCorpus(c), sourcelda.WrapKnowledgeSource(src), opts)
	if err != nil {
		return dtrain.ChainSpec{}, err
	}
	return dtrain.ChainSpec{
		NumFreeTopics: o.NumFreeTopics,
		Alpha:         o.Alpha,
		Beta:          o.Beta,
		LambdaMode:    o.LambdaMode.String(),
		Lambda:        o.Lambda,
		Mu:            o.Mu,
		Sigma:         o.Sigma,
		UseSmoothing:  o.UseSmoothing,
		Sampler:       o.Sampler.String(),
		SweepMode:     o.SweepMode.String(),
		Shards:        o.Shards,
		Threads:       *f.threads,
		Seed:          o.Seed,
	}, nil
}

func runCoordinator(ctx context.Context, f *cliFlags, c *corpus.Corpus, src *knowledge.Source, log *slog.Logger) error {
	spec, err := specFromFlags(f, c, src)
	if err != nil {
		return err
	}
	var events io.Writer
	if *f.telemetryLog != "" {
		file, err := os.OpenFile(*f.telemetryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer file.Close()
		events = file
	}
	metrics := dtrain.NewMetrics(events)
	if *f.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(metrics.WritePrometheus))
		msrv := &http.Server{Addr: *f.metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Info("metrics listener", "addr", *f.metricsAddr)
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("metrics listener failed", "addr", *f.metricsAddr, "error", err)
			}
		}()
		defer msrv.Close()
	}

	ln, err := net.Listen("tcp", *f.listen)
	if err != nil {
		return err
	}
	res, err := dtrain.RunCoordinator(ctx, ln, dtrain.CoordinatorConfig{
		Corpus:       c,
		Source:       src,
		Spec:         spec,
		Workers:      *f.workers,
		Epochs:       *f.epochs,
		Staleness:    *f.staleness,
		Logger:       log,
		Metrics:      metrics,
		IOTimeout:    *f.ioTimeout,
		EpochTimeout: *f.epochTimeout,
		JoinTimeout:  *f.joinTimeout,
	})
	if err != nil {
		return err
	}
	defer res.Model.Close()
	if err := metrics.Err(); err != nil {
		log.Warn("telemetry log write failed", "error", err)
	}
	fmt.Printf("trained %d sweeps over %d docs with %d workers (staleness %d); model digest %#x\n",
		res.Checkpoint.Sweep, c.NumDocs(), *f.workers, max(1, *f.staleness), res.Digest)
	if *f.saveCkpt != "" {
		if err := persist.WriteFileAtomic(*f.saveCkpt, func(w io.Writer) error {
			return persist.SaveCheckpoint(w, res.Checkpoint)
		}); err != nil {
			return err
		}
		fmt.Printf("assembled chain checkpoint written to %s\n", *f.saveCkpt)
	}
	return nil
}

func runWorker(ctx context.Context, f *cliFlags, c *corpus.Corpus, src *knowledge.Source, log *slog.Logger) error {
	id := *f.workerID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	conn, err := net.Dial("tcp", *f.connect)
	if err != nil {
		return err
	}
	return dtrain.RunWorker(ctx, conn, dtrain.WorkerConfig{
		Corpus:         c,
		Source:         src,
		CheckpointRoot: *f.ckptDir,
		Retain:         *f.ckptRetain,
		ID:             id,
		Logger:         log,
	})
}
