// Command srclda trains a topic model over a corpus directory with a
// knowledge-source directory and prints labeled topics.
//
// Corpus layout: every *.txt file under -corpus is one document; every
// *.txt file under -source is one knowledge article whose file name (minus
// extension) is the topic label. Without -corpus/-source the built-in
// Reuters-like synthetic scenario is used, so the command is runnable out
// of the box:
//
//	srclda                          # synthetic demo
//	srclda -model lda -topics 20    # baseline LDA on the demo corpus
//	srclda -corpus docs/ -source wiki/ -free 10 -iters 500
//	srclda -save-bundle model.bundle   # emit a serving bundle for srcldad
//	srclda -save-bundle model.bundle -bundle-format flat   # mmap-able flat bundle
//	srclda -convert-bundle old.bundle -save-bundle new.bundle -bundle-format flat
//
// Long runs can checkpoint periodically and resume after a crash with the
// exact same chain (pass the same data and chain flags; -iters is the
// run's total target):
//
//	srclda -iters 1000 -checkpoint-dir ckpts/ -checkpoint-every 50
//	srclda -iters 1000 -checkpoint-dir ckpts/ -resume ckpts/   # newest wins
//
// Training is observable in flight: -telemetry-log appends one JSON event
// per completed sweep (log-likelihood, tokens/sec, sweep and checkpoint
// latency), -metrics-addr serves the same state as live Prometheus gauges,
// and -debug-addr exposes net/http/pprof for profiling a running chain:
//
//	srclda -iters 2000 -telemetry-log train.jsonl -metrics-addr :9090
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"sourcelda"
	"sourcelda/cmd/internal/traincli"
	"sourcelda/internal/corpus"
	"sourcelda/internal/ctm"
	"sourcelda/internal/eda"
	"sourcelda/internal/labeling"
	"sourcelda/internal/lda"
	"sourcelda/internal/obs"
	"sourcelda/internal/persist"
	"sourcelda/internal/textproc"
)

// cliFlags holds every srclda flag. They are defined through defineFlags on
// an explicit FlagSet so the docs-drift test can enumerate them against the
// flag table in docs/OPERATIONS.md.
type cliFlags struct {
	corpusDir, sourceDir      *string
	model                     *string
	freeT, topics, iters      *int
	seed                      *int64
	mu, sigma, lambda         *float64
	threads, shards           *int
	sampler                   *string
	topN, minDocs             *int
	saveTo, bundleTo          *string
	bundleName, bundleVersion *string
	bundleFormat              *string
	convertBundle             *string
	ckptDir                   *string
	ckptEvery, ckptKeep       *int
	resume                    *string
	logFormat, logLevel       *string
	telemetryLog              *string
	metricsAddr, debugAddr    *string
}

func defineFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		corpusDir:     fs.String("corpus", "", "directory of *.txt documents, one file per document (default \"\": built-in synthetic demo corpus)"),
		sourceDir:     fs.String("source", "", "directory of *.txt knowledge articles, file name = topic label (default \"\": built-in synthetic demo source)"),
		model:         fs.String("model", "srclda", "model to train: srclda, lda, eda, or ctm (default srclda)"),
		freeT:         fs.Int("free", 5, "unlabeled (free) topics learned alongside the knowledge source, for srclda/ctm (default 5)"),
		topics:        fs.Int("topics", 20, "topic count for the lda baseline only (default 20)"),
		iters:         fs.Int("iters", 300, "total Gibbs sweeps; with -resume, the run's overall target including already-completed sweeps (default 300)"),
		seed:          fs.Int64("seed", 42, "chain seed; identical inputs and seed reproduce a run bit for bit (default 42)"),
		mu:            fs.Float64("mu", 0.7, "mean of the N(µ,σ) prior over the λ divergence exponent (default 0.7)"),
		sigma:         fs.Float64("sigma", 0.3, "std dev of the λ prior, must be >= 0 (default 0.3)"),
		lambda:        fs.Float64("lambda", -1, "fixed λ exponent in [0,1]; -1 integrates λ out by quadrature (default -1)"),
		threads:       fs.Int("threads", 0, "worker threads sweeping the -shards document shards; a resource bound that never changes the chain, ignored without -shards; 0 means one per shard, capped at the document and CPU counts (default 0)"),
		sampler:       fs.String("sampler", "auto", "per-token sampling kernel: auto, serial, or sparse; auto is sparse from 200 topics (free + source) and serial below, and -resume under auto takes the kernel the checkpoint was written under (default auto)"),
		shards:        fs.Int("shards", 0, "document shards swept concurrently against shard-local counts (document-sharded data-parallel sweeps); the count shapes the chain, 1 reproduces the sequential chain; 0 sweeps sequentially, exact collapsed Gibbs (default 0)"),
		topN:          fs.Int("top", 10, "words printed per topic (default 10)"),
		minDocs:       fs.Int("mindocs", 2, "superset reduction: minimum documents a discovered topic must appear in to be printed (default 2)"),
		saveTo:        fs.String("save", "", "write the fitted srclda snapshot to this JSON file (default \"\": don't)"),
		bundleTo:      fs.String("save-bundle", "", "write a self-contained serving bundle (vocabulary + source + snapshot) for cmd/srcldad to this file (default \"\": don't)"),
		bundleName:    fs.String("bundle-name", "", "logical model name embedded in the bundle written by -save-bundle; the srcldad models-dir watcher and admin API key rollouts on it (default \"\": unnamed)"),
		bundleVersion: fs.String("bundle-version", "", "version string embedded in the bundle written by -save-bundle, distinguishing successive builds of the same model (default \"\": unversioned)"),
		bundleFormat:  fs.String("bundle-format", "json", "format -save-bundle and -convert-bundle write: json (gzip JSON, retrainable archive) or flat (mmap-able zero-copy binary srcldad loads in O(1)) (default json)"),
		convertBundle: fs.String("convert-bundle", "", "convert this existing gzip-JSON bundle to -bundle-format, write it to -save-bundle, and exit without training (default \"\": train normally)"),
		ckptDir:       fs.String("checkpoint-dir", "", "directory for periodic training checkpoints, created if missing (default \"\": checkpointing off)"),
		ckptEvery:     fs.Int("checkpoint-every", 50, "sweeps between checkpoints; each write is atomic (temp file + fsync + rename) (default 50)"),
		ckptKeep:      fs.Int("checkpoint-retain", 3, "newest checkpoints kept per directory; negative keeps all (default 3)"),
		resume:        fs.String("resume", "", "checkpoint file — or checkpoint directory, newest wins — to resume training from; requires the run's original data and chain flags (default \"\": fresh run)"),
		logFormat:     fs.String("log-format", "text", "log output format: \"text\" (key=value lines) or \"json\" (one object per line, for log shippers)"),
		logLevel:      fs.String("log-level", "info", "minimum log level: debug, info, warn or error (checkpoint and resume events are info)"),
		telemetryLog:  fs.String("telemetry-log", "", "append one JSON object per completed sweep (log-likelihood, tokens/sec, sweep and checkpoint latency) to this file; enables per-sweep likelihood tracing (default \"\": off)"),
		metricsAddr:   fs.String("metrics-addr", "", "optional listen address serving live training gauges (sweep progress, likelihood, throughput) as Prometheus text (default \"\": off)"),
		debugAddr:     fs.String("debug-addr", "", "optional listen address for net/http/pprof and /debug/runtime gauges (default \"\": disabled; never expose publicly)"),
	}
}

func main() {
	f := defineFlags(flag.CommandLine)
	model, freeT, topics, iters, seed := f.model, f.freeT, f.topics, f.iters, f.seed
	shards, topN, minDocs, saveTo, bundleTo := f.shards, f.topN, f.minDocs, f.saveTo, f.bundleTo
	flag.Parse()

	if *f.bundleFormat != "json" && *f.bundleFormat != "flat" {
		fmt.Fprintf(os.Stderr, "unknown bundle format %q (want json or flat)\n", *f.bundleFormat)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *f.logFormat, *f.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srclda:", err)
		os.Exit(2)
	}
	defer obs.ServeDebug(*f.debugAddr, logger, func(w io.Writer) { obs.WriteRuntimeMetrics(w, "srclda", -1) })()
	// Conversion mode: no training, no corpus — just re-encode an existing
	// bundle and exit.
	if *f.convertBundle != "" {
		if *bundleTo == "" {
			fmt.Fprintln(os.Stderr, "-convert-bundle needs -save-bundle OUT for the converted file")
			os.Exit(2)
		}
		exitOn(convertBundle(*f.convertBundle, *bundleTo, *f.bundleFormat))
		fmt.Printf("converted %s -> %s (%s format)\n", *f.convertBundle, *bundleTo, *f.bundleFormat)
		return
	}

	// Validate up front so a typo'd kernel fails for every -model, not just
	// srclda (the only model the chain flags apply to).
	opts, err := traincli.ChainOptions(*freeT, *f.lambda, *f.mu, *f.sigma, *f.sampler, *shards, *f.threads, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *shards > 0 && *model != "srclda" {
		fmt.Fprintf(os.Stderr, "note: -shards only applies to -model srclda; ignored for %q\n", *model)
	}
	if *f.threads > 1 && *shards <= 0 {
		fmt.Fprintln(os.Stderr, "note: -threads only bounds sharded sweeps; ignored for a sequential sweep — use -shards N")
	}
	if (*f.ckptDir != "" || *f.resume != "") && *model != "srclda" {
		fmt.Fprintf(os.Stderr, "-checkpoint-dir and -resume only apply to -model srclda (got %q)\n", *model)
		os.Exit(2)
	}
	if (*f.telemetryLog != "" || *f.metricsAddr != "") && *model != "srclda" {
		fmt.Fprintf(os.Stderr, "-telemetry-log and -metrics-addr only apply to -model srclda (got %q)\n", *model)
		os.Exit(2)
	}
	if *f.ckptEvery < 1 {
		fmt.Fprintf(os.Stderr, "-checkpoint-every is %d; it must be >= 1 sweep\n", *f.ckptEvery)
		os.Exit(2)
	}
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "-iters is %d; it must be >= 1 sweep\n", *iters)
		os.Exit(2)
	}

	c, src, err := traincli.LoadData(*f.corpusDir, *f.sourceDir, *seed)
	exitOn(err)
	fmt.Printf("corpus: %d docs, %d tokens, vocabulary %d; knowledge source: %d articles\n\n",
		c.NumDocs(), c.TotalTokens(), c.VocabSize(), src.Len())

	switch *model {
	case "srclda":
		// The façade owns the mapping onto core.Options and the training loop;
		// this command turns flags into sourcelda.Options and Progress reports
		// into logs and telemetry.
		fc, fk := sourcelda.WrapCorpus(c), sourcelda.WrapKnowledgeSource(src)
		opts.Iterations = *iters
		if *f.ckptDir != "" {
			opts.Checkpoint = &sourcelda.Checkpointing{Dir: *f.ckptDir, EverySweeps: *f.ckptEvery, Retain: *f.ckptKeep}
		}
		// Telemetry: one JSONL event per sweep and/or live Prometheus gauges.
		// It implies likelihood tracing; Options.ChainDigest excludes the
		// tracing knob, so a telemetry run resumes a non-telemetry chain (and
		// vice versa) without a digest mismatch.
		var recorder *obs.TrainingRecorder
		kernel := ""
		if *f.telemetryLog != "" || *f.metricsAddr != "" {
			var sink io.Writer
			if *f.telemetryLog != "" {
				tf, err := os.Create(*f.telemetryLog)
				exitOn(err)
				defer tf.Close()
				sink = tf
			}
			recorder = obs.NewTrainingRecorder(sink)
			opts.TraceLikelihood = true
			mapped, err := sourcelda.CoreOptions(fc, fk, opts)
			exitOn(err)
			kernel = mapped.Sampler.String()
		}
		if *f.metricsAddr != "" {
			// Bind before training starts: a bad address should stop the run
			// immediately, and the log carries the resolved port (so ":0"
			// works for tests and for avoiding collisions).
			mln, err := net.Listen("tcp", *f.metricsAddr)
			exitOn(err)
			logger.Info("metrics listener", "addr", mln.Addr().String())
			msrv := &http.Server{Handler: obs.MetricsHandler(recorder.WritePrometheus), ReadHeaderTimeout: 5 * time.Second}
			go func() {
				if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
					logger.Error("metrics listener failed", "addr", mln.Addr().String(), "error", err)
				}
			}()
			defer msrv.Close()
		}
		if opts.Checkpoint != nil || recorder != nil {
			opts.Progress = func(p sourcelda.Progress) error {
				if p.CheckpointPath != "" {
					logger.Info("checkpoint written",
						"sweep", p.Sweep, "total_sweeps", p.TotalSweeps,
						"path", p.CheckpointPath, "write_seconds", p.CheckpointSeconds)
				}
				if recorder == nil {
					return nil
				}
				ev := obs.SweepEvent{
					Time:           time.Now(),
					Sweep:          p.Sweep,
					TotalSweeps:    p.TotalSweeps,
					SweepSeconds:   p.SweepSeconds,
					TokensPerSec:   p.TokensPerSec,
					Kernel:         kernel,
					CheckpointPath: p.CheckpointPath,
				}
				if !math.IsNaN(p.LogLikelihood) {
					ev.LogLikelihood = &p.LogLikelihood
				}
				if p.CheckpointPath != "" {
					ev.CheckpointSeconds = &p.CheckpointSeconds
				}
				recorder.Record(ev)
				return nil
			}
		}
		var m *sourcelda.Model
		if *f.resume != "" {
			logger.Info("resuming from checkpoint", "path", *f.resume, "total_sweeps", *iters)
			m, err = sourcelda.Resume(*f.resume, fc, fk, opts)
		} else {
			m, err = sourcelda.Fit(fc, fk, opts)
		}
		exitOn(err)
		// Telemetry write failures never abort training; report them here.
		exitOn(recorder.Err())
		res := m.Raw()
		fmt.Printf("discovered labeled topics (≥%d docs):\n", *minDocs)
		printTopics(c, res.Phi, res.Labels, res.TokenCounts, res.DocFrequencies, *minDocs, *topN)
		if *saveTo != "" {
			exitOn(persist.WriteFileAtomic(*saveTo, func(w io.Writer) error { return sourcelda.SaveModel(w, m) }))
			fmt.Printf("\nsnapshot written to %s\n", *saveTo)
		}
		if *bundleTo != "" {
			save := sourcelda.SaveBundleNamed
			if *f.bundleFormat == "flat" {
				save = sourcelda.SaveBundleFlatNamed
			}
			exitOn(persist.WriteFileAtomic(*bundleTo, func(w io.Writer) error {
				return save(w, m, *f.bundleName, *f.bundleVersion)
			}))
			fmt.Printf("\nserving bundle written to %s (serve it: srcldad -bundle %s)\n", *bundleTo, *bundleTo)
		}
	case "lda":
		m, err := lda.Fit(c, lda.Options{
			NumTopics:  *topics,
			Alpha:      50.0 / float64(*topics),
			Beta:       200.0 / float64(c.VocabSize()),
			Iterations: *iters,
			Seed:       *seed,
		})
		exitOn(err)
		// IR-LDA: post-hoc labeling with the TF-IDF/cosine retriever.
		labels := make([]string, *topics)
		ir := labeling.NewIRLabeler(src, c.VocabSize(), 10)
		for t, a := range labeling.LabelAll(ir, m.Phi()) {
			labels[t] = src.Label(a) + " (IR)"
		}
		counts := make([]int, *topics)
		for _, tot := range m.Assignments() {
			for _, k := range tot {
				counts[k]++
			}
		}
		printTopics(c, m.Phi(), labels, counts, nil, 0, *topN)
	case "eda":
		m, err := eda.Fit(c, src, eda.Options{Alpha: 0.5, Iterations: *iters, Seed: *seed})
		exitOn(err)
		counts := make([]int, m.NumTopics())
		for _, tot := range m.Assignments() {
			for _, k := range tot {
				counts[k]++
			}
		}
		printTopics(c, m.Phi(), m.Labels(), counts, nil, 0, *topN)
	case "ctm":
		m, err := ctm.Fit(c, src, ctm.Options{
			NumFreeTopics: *freeT, Alpha: 0.5, Beta: 0.01,
			Iterations: *iters, Seed: *seed,
		})
		exitOn(err)
		counts := make([]int, m.NumTopics())
		for _, tot := range m.Assignments() {
			for _, k := range tot {
				counts[k]++
			}
		}
		printTopics(c, m.Phi(), m.Labels(), counts, nil, 0, *topN)
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// convertBundle re-encodes an existing gzip-JSON bundle into the requested
// format. Flat input is rejected: the flat format is a one-way serving
// artifact (no knowledge source, no training mixtures), so there is nothing
// to convert it back from — keep the JSON original.
func convertBundle(in, out, format string) error {
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	var magic [8]byte
	if n, _ := src.Read(magic[:]); persist.IsFlatBundle(magic[:n]) {
		return fmt.Errorf("%s is already a flat bundle; conversion reads gzip-JSON bundles (flat bundles cannot be converted back — keep the JSON original)", in)
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return persist.WriteFileAtomic(out, func(dst io.Writer) error {
		if format == "flat" {
			return persist.ConvertBundleToFlat(src, dst)
		}
		// json: decode + re-encode, normalizing a hand-edited bundle
		b, err := persist.LoadBundle(src)
		if err != nil {
			return err
		}
		return persist.SaveBundleMeta(dst, b.Vocab.Words(), b.Source, b.Result, b.Meta)
	})
}

// printTopics renders topics sorted by token count; when minDocs > 0 only
// topics meeting the document-frequency threshold are shown.
func printTopics(c *corpus.Corpus, phis [][]float64, labels []string, tokenCounts, docFreq []int, minDocs, topN int) {
	order := make([]int, len(phis))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return tokenCounts[order[i]] > tokenCounts[order[j]]
	})
	for _, t := range order {
		if tokenCounts[t] == 0 {
			continue
		}
		if minDocs > 0 && docFreq != nil && docFreq[t] < minDocs {
			continue
		}
		ids := textproc.TopWords(phis[t], topN)
		words := make([]string, len(ids))
		for i, id := range ids {
			words[i] = c.Vocab.Word(id)
		}
		fmt.Printf("%-28s (%6d tokens)  %s\n", labels[t], tokenCounts[t], strings.Join(words, ", "))
	}
}
