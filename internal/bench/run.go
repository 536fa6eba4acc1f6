package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Binaries are the four programs under test, in build order.
var Binaries = []string{"srclda", "srcldad", "srcldagw", "srcldactl"}

// BuildBinaries compiles the four programs from the working tree at root
// into binDir with one `go build`. An up-to-date binary is not relinked, so
// after the first run of a checkout this takes about a second.
func BuildBinaries(ctx context.Context, root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, b := range Binaries {
		args = append(args, "./cmd/"+b)
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build of the binaries under test: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// Options selects one workload run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Quick    bool

	BinDir  string    // holds the four built binaries
	WorkDir string    // scratch parent; a temp dir is made and removed inside it
	OutDir  string    // where -trace writes trace_<workload>.json
	BuildS  float64   // how long BuildBinaries took, reported as bench.build_s
	Env     Env       // copied into the report
	Log     io.Writer // progress lines; nil discards
}

// run carries the state of one workload run.
type run struct {
	ctx   context.Context
	opts  Options
	spec  Spec
	sizes Sizes
	dir   string
	procs *Procs
	in    *Inputs
	rep   *Report
	http  *http.Client // readiness polling and scrapes, apart from the load connections

	setupS float64 // accumulates input set-up plus each serving child's exec → ready
}

// Run executes one workload: set-up, then train → publish → serve → learn on
// the real binaries (Trace false), or the in-process traced replay (Trace
// true). Every child is stopped and the scratch directory removed before it
// returns, whatever the outcome.
func Run(ctx context.Context, opts Options) (rep *Report, err error) {
	spec, err := WorkloadByName(opts.Workload)
	if err != nil {
		return nil, err
	}
	if opts.Seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", opts.Seconds)
	}
	if opts.Quick {
		spec = spec.Quick()
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.WorkDir, "run-"+spec.Name+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		ctx: ctx, opts: opts, spec: spec, sizes: spec.Sizes(opts.Seconds, opts.Quick),
		dir: dir, procs: NewProcs(dir),
		http: &http.Client{Timeout: 10 * time.Second},
		rep: &Report{
			Workload: spec.Name, Seed: opts.Seed, Seconds: opts.Seconds, Trace: opts.Trace,
			Comparable: !opts.Quick, LoadgenValid: true, Env: opts.Env, Metrics: map[string]Metric{},
		},
	}
	// A cancelled context (SIGINT, test timeout) must take the children
	// down even while the pipeline is blocked in a request to one of them.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			r.procs.StopAll()
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		r.procs.StopAll()
		r.http.CloseIdleConnections()
		if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
			err = rmErr
		}
	}()

	if opts.Trace {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	r.rep.Correct = r.rep.Failed == 0
	return r.rep, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.opts.Log, "[%s] "+format+"\n", append([]any{r.spec.Name}, args...)...)
}

func (r *run) set(name string, value float64, unit string, n int) {
	r.rep.Metrics[name] = Metric{Value: value, Unit: unit, N: n}
}

// ops counts attempted operations and how many of them failed.
func (r *run) ops(attempted, failed int) {
	r.rep.Attempted += attempted
	r.rep.Failed += failed
}

// check records one output check as one attempted operation.
func (r *run) check(name string, err error) {
	c := Check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
		r.logf("CHECK FAILED %s: %v", name, err)
	}
	r.rep.Checks = append(r.rep.Checks, c)
	r.rep.Attempted++
	if err != nil {
		r.rep.Failed++
	}
}

func (r *run) bin(name string) string { return filepath.Join(r.opts.BinDir, name) }

// setUp generates the inputs from the seed, writes the files and fits the
// learner's chain archive. That is the part of setup_s the benchmark itself
// controls; serving children's start-up is added as they come up.
func (r *run) setUp() error {
	start := time.Now()
	in, err := Generate(r.spec, r.sizes, r.opts.Seed)
	if err != nil {
		return err
	}
	if err := in.WriteFiles(filepath.Join(r.dir, "inputs")); err != nil {
		return err
	}
	r.in = in
	r.setupS = time.Since(start).Seconds()
	r.logf("set-up %.2fs: %d train docs, %d articles, %d+%d+%d requests, %d feed docs",
		r.setupS, len(in.TrainTexts), len(in.Articles), len(in.Probes), len(in.PhaseA), len(in.PhaseB), len(in.FeedTexts))
	return nil
}

// endToEnd is the untraced run: every end-to-end metric comes from here and
// only from here.
func (r *run) endToEnd() error {
	if err := r.setUp(); err != nil {
		return err
	}
	// The trainer runs trainRuns times from scratch. Interference on a
	// shared box only ever slows a run down, so throughput is the fastest
	// run's; resident memory moves both ways with GC timing, so it is the
	// mean.
	var tr trainResult
	var rss []float64
	for i := 0; i < trainRuns; i++ {
		one, err := r.train(filepath.Join(r.dir, fmt.Sprintf("train-%d", i)))
		if err != nil {
			return err
		}
		if i == 0 || one.tokensPerS() > tr.tokensPerS() {
			tr = one
		}
		rss = append(rss, one.peakRSSMB)
	}
	r.set("train_tokens_per_s", tr.tokensPerS(), "tok/s", trainRuns)
	r.set("train_peak_rss_mb", Mean(rss), "MB", trainRuns)

	ppl, unigram, err := r.checkBundle(tr.bundle)
	if err != nil {
		return err
	}
	r.set("heldout_perplexity", ppl, "ppl", len(r.in.HeldoutTexts))

	var sv serveResult
	if r.spec.Topology == TopoLearner {
		sv, err = r.learn(true)
	} else {
		if sv, err = r.serve(tr.bundle); err != nil {
			return err
		}
		var lr serveResult
		lr, err = r.learn(false)
		sv.feedDocsPerS, sv.rssMB = lr.feedDocsPerS, sv.rssMB+lr.rssMB
	}
	if err != nil {
		return err
	}
	r.set("infer_p50_ms", sv.phaseA.P50.Value, "ms", sv.phaseA.P50.N)
	r.set("infer_p95_ms", sv.phaseA.P95.Value, "ms", sv.phaseA.P95.N)
	r.set("feed_docs_per_s", sv.feedDocsPerS, "docs/s", r.sizes.FeedDocs)
	r.set("serve_rss_mb", sv.rssMB, "MB", 0)
	r.set("setup_s", r.setupS, "s", 0)
	r.rep.Ungated = map[string]Metric{
		"heldout_perplexity_vs_unigram": {ppl / unigram, "ratio", len(r.in.HeldoutTexts)},

		"infer_docs_per_s":        {sv.docsPerS, "docs/s", r.sizes.PhaseB * PhaseBDocs},
		"infer_tail_ms":           {sv.phaseA.Tail.Value, "ms", sv.phaseA.Tail.N},
		"infer_tail_percentile":   {sv.phaseA.Tail.P * 100, "%", sv.phaseA.Tail.N},
		"infer_max_ms":            {sv.phaseA.MaxMS, "ms", sv.phaseA.OK},
		"loadgen_lateness_p99_ms": {sv.phaseA.LatenessP99MS, "ms", sv.phaseA.Sent},
	}
	r.rep.LoadgenValid = sv.phaseA.LatenessP99MS <= 1
	return nil
}

// trainResult is what a training run produced.
type trainResult struct {
	bundle    string
	tokens    int // tokens the program reported parsing
	sweeps    int
	wall      time.Duration // first exec → last exit of the training processes
	peakRSSMB float64       // summed over the training processes
}

// trainRuns is how often an end-to-end run repeats the trainer.
const trainRuns = 2

// tokensPerS is (tokens the program parsed × sweeps) ÷ the wall of the
// training processes, exec to exit.
func (t trainResult) tokensPerS() float64 {
	return float64(t.tokens) * float64(t.sweeps) / t.wall.Seconds()
}

var corpusLine = regexp.MustCompile(`corpus: (\d+) docs, (\d+) tokens, vocabulary (\d+)`)

// train runs the workload's trainer on its default flags (only inputs,
// outputs and the schedule are passed) and publishes a flat bundle.
func (r *run) train(out string) (trainResult, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return trainResult{}, err
	}
	res := trainResult{bundle: filepath.Join(out, "model.bundle"), sweeps: r.sizes.Sweeps}
	data := []string{"-corpus", r.in.CorpusDir, "-source", r.in.SourceDir, "-free", strconv.Itoa(FreeTopics)}
	publish := []string{"-save-bundle", res.bundle, "-bundle-format", "flat"}
	sweeps := strconv.Itoa(res.sweeps)
	r.ops(1, 0)

	if r.spec.Trainer == TrainSingle {
		args := append(append([]string{}, data...), "-iters", sweeps,
			"-checkpoint-dir", filepath.Join(out, "ckpt"), "-checkpoint-every", strconv.Itoa(max(1, res.sweeps/2)))
		c, err := r.procs.Start("srclda", r.bin("srclda"), append(args, publish...)...)
		if err != nil {
			return res, err
		}
		c.TrackPeakRSS()
		if err := c.Wait(r.ctx); err != nil {
			return res, fmt.Errorf("srclda: %w\n%s", err, c.LogTail(2000))
		}
		res.wall, res.peakRSSMB = c.Wall(), c.PeakRSSMB()
		m := corpusLine.FindStringSubmatch(c.Stdout())
		if m == nil {
			return res, fmt.Errorf("srclda printed no corpus line:\n%.500s", c.Stdout())
		}
		res.tokens, _ = strconv.Atoi(m[2])
		r.logf("train: %d tokens × %d sweeps in %.2fs, peak %.0f MB", res.tokens, res.sweeps, res.wall.Seconds(), res.peakRSSMB)
		return res, nil
	}

	// Distributed: coordinator first, as an operator would, then the workers
	// once it listens (a worker that dials too early exits).
	addr, err := FreeAddr()
	if err != nil {
		return res, err
	}
	ckpt := filepath.Join(out, "dtrain.ckpt")
	coord, err := r.procs.Start("coordinator", r.bin("srcldactl"), append(append([]string{"-role", "coordinator"}, data...),
		"-listen", addr, "-workers", "2", "-epochs", sweeps, "-staleness", "1", "-save-checkpoint", ckpt)...)
	if err != nil {
		return res, err
	}
	coord.TrackPeakRSS()
	if err := waitListening(r.ctx, coord, addr); err != nil {
		return res, err
	}
	procs := []*Child{coord}
	for w := 1; w <= 2; w++ {
		// -free is the coordinator's to set; workers take the chain shape
		// from its assign message.
		c, err := r.procs.Start(fmt.Sprintf("worker%d", w), r.bin("srcldactl"), "-role", "worker",
			"-corpus", r.in.CorpusDir, "-source", r.in.SourceDir,
			"-connect", addr, "-checkpoint-dir", filepath.Join(out, fmt.Sprintf("w%d", w)))
		if err != nil {
			return res, err
		}
		c.TrackPeakRSS()
		procs = append(procs, c)
	}
	var last time.Time
	for _, c := range procs {
		if err := c.Wait(r.ctx); err != nil {
			return res, fmt.Errorf("%s: %w\n%s", c.Name, err, c.LogTail(2000))
		}
		res.peakRSSMB += c.PeakRSSMB()
		if c.exited.After(last) {
			last = c.exited
		}
	}
	res.wall = last.Sub(coord.Started)
	printed := coord.Stdout()
	var digestErr error
	if !strings.Contains(printed, "model digest 0x") {
		digestErr = fmt.Errorf("coordinator printed no `trained … model digest` line:\n%.300s", printed)
	}
	r.check("dtrain_digest_line", digestErr)
	tokens, err := r.checkDtrainCheckpoint(ckpt)
	r.check("dtrain_checkpoint_decodes", err)
	res.tokens = tokens
	r.logf("dtrain: %d tokens × %d epochs in %.2fs, peak %.0f MB over 3 processes", res.tokens, res.sweeps, res.wall.Seconds(), res.peakRSSMB)

	// Publish: the assembled checkpoint resumes under srclda, which writes
	// the bundle (no sweeps left to run). Untimed, but a failure is a failure.
	pub, err := r.procs.Start("srclda-publish", r.bin("srclda"), append(append(append([]string{}, data...),
		"-iters", sweeps, "-resume", ckpt), publish...)...)
	if err != nil {
		return res, err
	}
	if err := pub.Wait(r.ctx); err != nil {
		return res, fmt.Errorf("srclda -resume of the dtrain checkpoint: %w\n%s", err, pub.LogTail(2000))
	}
	return res, nil
}

// waitListening blocks until the child's listening socket on addr shows up
// in /proc/net/tcp. Connecting to probe it would look like a worker joining.
func waitListening(ctx context.Context, c *Child, addr string) error {
	_, port, _ := strings.Cut(addr, ":")
	p, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("bad address %q", addr)
	}
	needle := fmt.Sprintf(":%04X 00000000:0000 0A", p) // local port, any remote, state LISTEN
	for {
		data, err := os.ReadFile("/proc/net/tcp")
		if err != nil {
			return fmt.Errorf("cannot watch for the coordinator's listener: %w", err)
		}
		if strings.Contains(string(data), needle) {
			return nil
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before listening: %v\n%s", c.Name, c.err, c.LogTail(2000))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}
