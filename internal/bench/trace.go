package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"sourcelda"
	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
	"sourcelda/internal/dtrain"
	"sourcelda/internal/infer"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/parallel"
	"sourcelda/internal/persist"
	"sourcelda/internal/textproc"
)

// traced is the -trace run. It runs the workload's real trainer once (for
// the bundle the serving replays load, and for the wall the training spans
// are compared with), then replays the same inputs in this process, layer by
// layer, timing the calls into each layer's public functions. Every
// per-layer metric comes from here; no end-to-end metric does.
func (r *run) traced() error {
	if err := r.setUp(); err != nil {
		return err
	}
	real, err := r.train(filepath.Join(r.dir, "train"))
	if err != nil {
		return err
	}
	t := &tracedRun{run: r, tr: NewTracer(r.spec.Name), bundle: real.bundle}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"training chain", t.trainingChain},
		{"other kernels", t.otherKernels},
		{"bundle formats", t.bundleFormats},
		{"cold starts", t.coldStarts},
		{"fold-in engine", t.foldIn},
		{"serving stack", t.servingStack},
		{"learner", t.learner},
		{"dtrain cluster", t.cluster},
	}
	for _, step := range steps {
		start := time.Now()
		if err := step.fn(); err != nil {
			return fmt.Errorf("trace %s: %w", step.name, err)
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.logf("trace: %s replayed in %.2fs", step.name, time.Since(start).Seconds())
	}

	// How much of the real trainer's wall the top-level training spans
	// explain: outside 0.9–1.1 the trace does not describe the run.
	covered := t.chainWall
	if r.spec.Trainer == TrainDtrain {
		covered = t.clusterWall
	}
	r.set("bench.trace_coverage", covered.Seconds()/real.wall.Seconds(), "ratio", 0)
	r.set("bench.build_s", r.opts.BuildS, "s", 0)
	spans := t.tr.Spans()
	var traced time.Duration
	for _, d := range SelfTimes(spans) {
		traced += d
	}
	r.set("bench.trace_overhead_pct", 100*float64(len(spans))*spanCost().Seconds()/traced.Seconds(), "%", len(spans))

	if err := os.MkdirAll(r.opts.OutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.opts.OutDir, "trace_"+r.spec.Name+".json")
	if err := t.tr.WriteFile(path); err != nil {
		return err
	}
	r.logf("trace: %d spans written to %s", len(spans), path)
	return nil
}

// spanCost measures what recording one span costs, so the overhead of
// tracing can be stated without replaying everything twice.
func spanCost() time.Duration {
	const n = 20000
	tr := NewTracer("calibration")
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.Begin(1, "span", "", 0)()
	}
	return time.Since(start) / n
}

// tracedRun carries what one replay step hands to the next.
type tracedRun struct {
	*run
	tr     *Tracer
	bundle string // the real trainer's flat bundle

	c   *corpus.Corpus
	src *knowledge.Source
	res *core.Result

	denseTokensPerS float64
	chainWall       time.Duration // Σ top-level spans of the single-process training replay
	clusterWall     time.Duration // the same for the distributed replay
}

func (t *tracedRun) ms(name string, d time.Duration, n int) {
	t.set(name, float64(d)/float64(time.Millisecond), "ms", n)
}

func (t *tracedRun) secs(name string, d time.Duration, n int) { t.set(name, d.Seconds(), "s", n) }

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration { return time.Duration(Median(durations(ds))) }

// trainerOptions are the chain options cmd/srclda derives from its default
// flags for this corpus (-free 8, λ integrated with µ 0.7 σ 0.3, 9
// quadrature points, smoothing, seed 42, one thread).
func trainerOptions(c *corpus.Corpus, src *knowledge.Source, sweeps int) core.Options {
	return core.Options{
		NumFreeTopics:    FreeTopics,
		Alpha:            50.0 / float64(FreeTopics+src.Len()),
		Beta:             200.0 / float64(c.VocabSize()),
		Mu:               0.7,
		Sigma:            0.3,
		QuadraturePoints: 9,
		UseSmoothing:     true,
		LambdaMode:       core.LambdaIntegrated,
		Iterations:       sweeps,
		Seed:             42,
		Threads:          1,
	}
}

// steadySweeps drops the first two sweeps (the chain is still concentrating
// and the slabs are cold) when enough remain.
func steadySweeps(ds []time.Duration) []time.Duration {
	if len(ds) > 3 {
		return ds[2:]
	}
	return ds[len(ds)/2:]
}

// trainingChain replays what cmd/srclda does between exec and exit, in the
// same order and with the same options: load text, build the model, sweep,
// checkpoint at the same cadence, take the result, write the flat bundle.
func (t *tracedRun) trainingChain() error {
	op := t.tr.NewOp()
	whole := t.tr.Begin(op, "srclda", "", 0) // its self time is what the spans below leave unexplained
	var sum time.Duration
	top := func(name string, index int, fn func()) time.Duration {
		end := t.tr.Begin(op, name, "srclda", index)
		fn()
		d := end()
		sum += d
		return d
	}

	var fc *sourcelda.Corpus
	var fk *sourcelda.KnowledgeSource
	var err error
	load := top("textproc.load", 0, func() { fc, fk, err = loadTextDirs(t.in.CorpusDir, t.in.SourceDir, 0) })
	if err != nil {
		return err
	}
	t.c, t.src = fc.Internal(), fk.Internal()
	tokens := float64(t.c.TotalTokens())
	t.set("textproc.load_tokens_per_s", tokens/load.Seconds(), "tok/s", 0)

	// Not on the trainer's path by itself (NewModel computes it per topic);
	// timed alone to size the knowledge layer's share of the build.
	t.secs("knowledge.hyperparams_s", t.tr.Time(t.tr.NewOp(), "knowledge.hyperparams", "", func() {
		t.src.Hyperparams(t.c.VocabSize(), knowledge.DefaultEpsilon)
	}), 0)

	sweeps := t.sizes.Sweeps
	if t.spec.Trainer == TrainDtrain {
		sweeps = min(sweeps, 6) // coverage is judged on the cluster replay there
	}
	var m *core.Model
	t.secs("core.model_build_s", top("core.model_build", 0, func() {
		m, err = core.NewModel(t.c, t.src, trainerOptions(t.c, t.src, sweeps))
	}), 0)
	if err != nil {
		return err
	}
	defer m.Close()

	cw, err := persist.NewCheckpointWriter(filepath.Join(t.dir, "trace-ckpt"), 3)
	if err != nil {
		return err
	}
	every := max(1, sweeps/2)
	var sweepTimes, ckTimes, ckWrites []time.Duration
	var ckPath string
	var allocs []float64
	for i := 1; i <= sweeps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sweepTimes = append(sweepTimes, top("core.sweep", i, func() { m.Run(1) }))
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		if i%every == 0 {
			var ck *core.Checkpoint
			ckTimes = append(ckTimes, top("core.checkpoint", i, func() { ck = m.Checkpoint() }))
			ckWrites = append(ckWrites, top("persist.checkpoint_write", i, func() { ckPath, err = cw.Write(ck) }))
			if err != nil {
				return err
			}
		}
	}
	steady := medianDur(steadySweeps(sweepTimes))
	T := float64(FreeTopics + t.src.Len())
	t.denseTokensPerS = tokens / steady.Seconds()
	t.set("core.sweep_dense_tokens_per_s", t.denseTokensPerS, "tok/s", len(steadySweeps(sweepTimes)))
	t.set("core.sweep_dense_ns_per_token_topic", float64(steady)/(tokens*T), "ns", len(steadySweeps(sweepTimes)))
	t.set("core.sweep_allocs_per_sweep", Median(allocs), "count", len(allocs))
	t.secs("core.checkpoint_s", medianDur(ckTimes), len(ckTimes))
	t.secs("persist.checkpoint_write_s", medianDur(ckWrites), len(ckWrites))
	if fi, err := os.Stat(ckPath); err == nil {
		t.set("persist.checkpoint_mb", float64(fi.Size())/(1<<20), "MB", 0)
	}
	t.secs("persist.checkpoint_read_s", t.tr.Time(t.tr.NewOp(), "persist.checkpoint_read", "", func() {
		_, err = persist.LoadCheckpointFile(ckPath)
	}), 0)
	if err != nil {
		return err
	}

	t.secs("core.result_s", top("core.result", 0, func() { t.res = m.Result() }), 0)
	flat := filepath.Join(t.dir, "trace-flat.bundle")
	t.secs("persist.flat_write_s", top("persist.flat_write", 0, func() { err = t.writeFlat(flat) }), 0)
	if err != nil {
		return err
	}
	whole()
	t.chainWall = sum

	// Beyond the trainer's exit: what the first served inference still pays.
	t.secs("core.freeze_s", t.tr.Time(t.tr.NewOp(), "core.freeze", "", func() { m.Freeze() }), 0)
	t.set("core.live_topic_recall", liveTopicRecall(t.res, t.in.LiveLabels), "ratio", len(t.in.LiveLabels))
	return nil
}

func (t *tracedRun) writeFlat(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := persist.SaveBundleFlat(f, t.c.Vocab.Words(), t.src, t.res, &persist.BundleMeta{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// liveTopicRecall is the share of the ground-truth generating topics found
// among the K source topics holding the most tokens, K being their number.
func liveTopicRecall(res *core.Result, live []string) float64 {
	type topic struct {
		label  string
		tokens int
	}
	var source []topic
	for i, label := range res.Labels {
		if res.SourceIndices[i] >= 0 {
			source = append(source, topic{label, res.TokenCounts[i]})
		}
	}
	sort.SliceStable(source, func(i, j int) bool { return source[i].tokens > source[j].tokens })
	hits := 0
	for _, tp := range source[:min(len(live), len(source))] {
		if slices.Contains(live, tp.label) {
			hits++
		}
	}
	return float64(hits) / float64(len(live))
}

// otherKernels times the sweeps of the two kernels the trainer's default
// does not pick — sparse, and document-sharded over two shards — on the same
// corpus. Their models are built concurrently (untimed); sweeps run alone.
func (t *tracedRun) otherKernels() error {
	sparse := trainerOptions(t.c, t.src, 0)
	sparse.Sampler = core.SamplerSparse
	sharded := trainerOptions(t.c, t.src, 0)
	sharded.SweepMode, sharded.Shards = core.SweepShardedDocs, 2
	sharded.Threads = core.DefaultShardWorkers(2, t.c.NumDocs())

	models := make([]*core.Model, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, o := range []core.Options{sparse, sharded} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i], errs[i] = core.NewModel(t.c, t.src, o)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		defer models[i].Close()
	}
	tokens := float64(t.c.TotalTokens())
	n := min(4, t.sizes.Sweeps)
	for i, name := range []string{"sparse", "sharded2"} {
		op := t.tr.NewOp()
		var times []time.Duration
		for s := 1; s <= n; s++ {
			end := t.tr.Begin(op, "core.sweep_"+name, "", s)
			models[i].Run(1)
			times = append(times, end())
		}
		steady := steadySweeps(times)
		t.set("core.sweep_"+name+"_tokens_per_s", tokens/medianDur(steady).Seconds(), "tok/s", len(steady))
	}
	return nil
}

// bundleFormats times both bundle formats on the replayed chain's result.
func (t *tracedRun) bundleFormats() error {
	flat := filepath.Join(t.dir, "trace-flat.bundle")
	fi, err := os.Stat(flat)
	if err != nil {
		return err
	}
	t.set("persist.flat_mb", float64(fi.Size())/(1<<20), "MB", 0)

	var maps, eagers []time.Duration
	for i := 0; i < 5; i++ {
		var fb *persist.FlatBundle
		maps = append(maps, t.tr.Time(t.tr.NewOp(), "persist.flat_map", "", func() { fb, err = persist.LoadBundleMapped(flat) }))
		if err != nil {
			return err
		}
		fb.Close()
	}
	for i := 0; i < 3; i++ {
		eagers = append(eagers, t.tr.Time(t.tr.NewOp(), "persist.flat_eager", "", func() {
			var f *os.File
			if f, err = os.Open(flat); err == nil {
				_, err = persist.LoadBundleFlat(f)
				f.Close()
			}
		}))
		if err != nil {
			return err
		}
	}
	t.ms("persist.flat_map_ms", medianDur(maps), len(maps))
	t.ms("persist.flat_eager_ms", medianDur(eagers), len(eagers))

	gz := filepath.Join(t.dir, "trace-gzip.bundle")
	t.secs("persist.gzip_write_s", t.tr.Time(t.tr.NewOp(), "persist.gzip_write", "", func() {
		var f *os.File
		if f, err = os.Create(gz); err == nil {
			err = persist.SaveBundleMeta(f, t.c.Vocab.Words(), t.src, t.res, &persist.BundleMeta{})
			f.Close()
		}
	}), 0)
	if err != nil {
		return err
	}
	t.ms("persist.gzip_load_ms", t.tr.Time(t.tr.NewOp(), "persist.gzip_load", "", func() {
		var f *os.File
		if f, err = os.Open(gz); err == nil {
			_, err = persist.LoadBundle(f)
			f.Close()
		}
	}), 0)
	return err
}

// coldStarts measures srcldad -bundle from exec to its first 200 on
// /v1/infer, five times over.
func (t *tracedRun) coldStarts() error {
	lg := NewLoadgen(1)
	defer lg.Close()
	var times []float64
	for i := 0; i < 5; i++ {
		addr, err := FreeAddr()
		if err != nil {
			return err
		}
		op := t.tr.NewOp()
		end := t.tr.Begin(op, "persist.serve_ready", "", i)
		c, err := t.procs.Start(fmt.Sprintf("srcldad-cold%d", i), t.bin("srcldad"), "-addr", addr, "-bundle", t.bundle)
		if err != nil {
			return err
		}
		if _, err := c.WaitReady(t.ctx, t.http, "http://"+addr+"/readyz"); err != nil {
			return err
		}
		_, _, err = lg.post(t.ctx, Call{URL: "http://" + addr + "/v1/infer", Body: t.in.Probes[0]}, 0)
		times = append(times, float64(end())/float64(time.Millisecond))
		c.Stop()
		if err != nil {
			return err
		}
	}
	t.set("persist.serve_ready_ms", Median(times), "ms", len(times))
	return nil
}

// encode maps a text to vocabulary ids the way the façade does before
// fold-in: unknown words become -1.
func encode(v *textproc.Vocabulary, text string) []int {
	toks := textproc.Tokenize(text)
	ids := make([]int, len(toks))
	for i, tok := range toks {
		if id, ok := v.ID(tok); ok {
			ids[i] = id
		} else {
			ids[i] = -1
		}
	}
	return ids
}

// foldIn times the fold-in engine alone, then the façade around it, on the
// serving phases' own documents and srcldad's default schedule.
func (t *tracedRun) foldIn() error {
	fb, err := persist.LoadBundleMapped(t.bundle)
	if err != nil {
		return err
	}
	defer fb.Close()
	frozen, err := core.FrozenFromCond(fb.Cond, fb.T, fb.V, fb.Labels, fb.SourceIndices, fb.Alpha)
	if err != nil {
		return err
	}
	eng, err := infer.New(frozen, infer.Options{BurnIn: ServerInfer.BurnIn, Samples: ServerInfer.Samples, Seed: ServerInfer.Seed})
	if err != nil {
		return err
	}
	short := t.in.PhaseATexts[:min(200, len(t.in.PhaseATexts))]
	var long []string
	for _, call := range t.in.PhaseBTexts {
		long = append(long, call...)
	}
	long = long[:min(48, len(long))]

	timeDocs := func(span string, texts []string) (perDoc []time.Duration, known int) {
		op := t.tr.NewOp()
		for i, text := range texts {
			ids := encode(fb.Vocab, text)
			end := t.tr.Begin(op, span, "", i)
			doc := eng.Infer(ids)
			perDoc = append(perDoc, end())
			known += doc.Known
		}
		return perDoc, known
	}
	shortTimes, _ := timeDocs("infer.doc_short", short)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	longTimes, known := timeDocs("infer.doc_long", long)
	runtime.ReadMemStats(&after)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.set("infer.doc_us_short", us(medianDur(shortTimes)), "us", len(shortTimes))
	t.set("infer.doc_us_long", us(medianDur(longTimes)), "us", len(longTimes))
	// The encode and the span bookkeeping between documents allocate a
	// little too; they are the same on every commit.
	t.set("infer.allocs_per_doc", float64(after.Mallocs-before.Mallocs)/float64(len(long)), "count", len(long))
	t.set("infer.bytes_per_doc", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(long)), "B", len(long))
	var total time.Duration
	for _, d := range longTimes {
		total += d
	}
	schedule := float64(ServerInfer.BurnIn + ServerInfer.Samples)
	t.set("infer.ns_per_token_topic_sweep", float64(total)/(float64(known)*float64(fb.T)*schedule), "ns", known)

	pool := parallel.NewPool(MaxClients())
	defer pool.Close()
	op := t.tr.NewOp()
	var docs int
	var batchTime time.Duration
	for i, call := range t.in.PhaseBTexts[:min(4, len(t.in.PhaseBTexts))] {
		ids := make([][]int, len(call))
		for j, text := range call {
			ids[j] = encode(fb.Vocab, text)
		}
		end := t.tr.Begin(op, "infer.batch", "", i)
		eng.InferBatch(ids, pool)
		batchTime += end()
		docs += len(call)
	}
	t.set("infer.batch_docs_per_s", float64(docs)/batchTime.Seconds(), "docs/s", docs)

	// The façade adds tokenizing and vocabulary encoding around the engine.
	m, err := sourcelda.LoadBundleFile(t.bundle)
	if err != nil {
		return err
	}
	defer m.Close()
	inf, err := m.NewInferrer(ServerInfer)
	if err != nil {
		return err
	}
	defer inf.Close()
	op = t.tr.NewOp()
	var facade []time.Duration
	for i, text := range long {
		end := t.tr.Begin(op, "sourcelda.infer", "", i)
		_, err := inf.Infer(text)
		facade = append(facade, end())
		if err != nil {
			return err
		}
	}
	t.set("sourcelda.encode_us_per_doc", us(medianDur(facade)-medianDur(longTimes)), "us", len(facade))
	return nil
}

// cluster replays distributed training in this process: the coordinator and
// two workers over an in-memory listener, with the coordinator's own
// telemetry as the source of the per-epoch numbers.
func (t *tracedRun) cluster() error {
	epochs := t.sizes.Sweeps
	if t.spec.Trainer != TrainDtrain {
		epochs = min(epochs, 3) // the layer's numbers, at a fraction of the cost
	}
	op := t.tr.NewOp()
	whole := t.tr.Begin(op, "srcldactl", "", 0)
	var sum time.Duration
	top := func(name string, fn func()) {
		end := t.tr.Begin(op, name, "srcldactl", 0)
		fn()
		sum += end()
	}

	// Each of the three processes loads the text itself: the coordinator
	// first, then the two workers side by side.
	var err error
	top("textproc.load", func() { _, _, err = loadTextDirs(t.in.CorpusDir, t.in.SourceDir, 0) })
	if err != nil {
		return err
	}
	top("textproc.load_workers", func() {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, e := loadTextDirs(t.in.CorpusDir, t.in.SourceDir, 0); e != nil {
					err = e
				}
			}()
		}
		wg.Wait()
	})
	if err != nil {
		return err
	}

	var telemetry bytes.Buffer
	opts := trainerOptions(t.c, t.src, 0)
	spec := dtrain.ChainSpec{
		NumFreeTopics: FreeTopics, Alpha: opts.Alpha, Beta: opts.Beta, Mu: opts.Mu, Sigma: opts.Sigma,
		LambdaMode: "integrated", UseSmoothing: true, Sampler: "serial", SweepMode: "sequential",
		Threads: 1, Seed: 42,
	}
	ctx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	ln := dtrain.NewPipeListener()
	workerErrs := make(chan error, 2)
	var res *dtrain.Result
	start := time.Now()
	top("dtrain.run", func() {
		for w := 1; w <= 2; w++ {
			go func() {
				conn, err := ln.Dial()
				if err == nil {
					err = dtrain.RunWorker(ctx, conn, dtrain.WorkerConfig{
						Corpus: t.c, Source: t.src,
						CheckpointRoot: filepath.Join(t.dir, fmt.Sprintf("trace-w%d", w)),
						ID:             fmt.Sprintf("w%d", w),
					})
				}
				workerErrs <- err
			}()
		}
		res, err = dtrain.RunCoordinator(ctx, ln, dtrain.CoordinatorConfig{
			Corpus: t.c, Source: t.src, Spec: spec, Workers: 2, Epochs: epochs, Staleness: 1,
			Metrics: dtrain.NewMetrics(&telemetry),
		})
	})
	if err != nil {
		return err
	}
	res.Model.Close()
	for w := 0; w < 2; w++ {
		if werr := <-workerErrs; werr != nil {
			return werr
		}
	}
	whole()
	t.clusterWall = sum

	events, err := parseEpochEvents(&telemetry)
	if err != nil {
		return err
	}
	var epochS, lagS []float64
	var mergeMB float64
	for _, ev := range events {
		epochS = append(epochS, ev.EpochSeconds)
		lagS = append(lagS, ev.WorkerLagSeconds)
		mergeMB += float64(ev.MergeBytes) / (1 << 20)
	}
	first := events[0]
	t.set("dtrain.startup_s", first.Time.Add(-time.Duration(first.EpochSeconds*float64(time.Second))).Sub(start).Seconds(), "s", 0)
	t.set("dtrain.epoch_s_median", Median(epochS), "s", len(epochS))
	steadyTokens := float64(t.c.TotalTokens()) / Median(epochS)
	t.set("dtrain.steady_tokens_per_s", steadyTokens, "tok/s", len(epochS))
	t.set("dtrain.merge_mb_per_epoch", mergeMB/float64(len(events)), "MB", len(events))
	t.set("dtrain.worker_lag_s_mean", Mean(lagS), "s", len(lagS))
	t.set("dtrain.single_process_tokens_per_s", t.denseTokensPerS, "tok/s", 0)
	t.set("dtrain.scaling_x", steadyTokens/t.denseTokensPerS, "ratio", 0)

	// One Counts-sized frame through the wire encoding, reader and writer on
	// the two ends of an in-memory connection.
	frame := &dtrain.Message{Kind: dtrain.KindCounts, Counts: make([]int32, (FreeTopics+t.src.Len())*t.c.VocabSize())}
	for i := range frame.Counts {
		frame.Counts[i] = int32(i % 7)
	}
	var wire []float64
	for i := 0; i < 3; i++ {
		pl := dtrain.NewPipeListener()
		readErr := make(chan error, 1)
		go func() {
			conn, err := pl.Accept()
			if err == nil {
				_, err = dtrain.ReadMessage(conn)
				conn.Close()
			}
			readErr <- err
		}()
		conn, err := pl.Dial()
		if err != nil {
			return err
		}
		d := t.tr.Time(t.tr.NewOp(), "dtrain.wire_frame", "", func() {
			if err = dtrain.WriteMessage(conn, frame); err == nil {
				err = <-readErr
			}
		})
		conn.Close()
		pl.Close()
		if err != nil {
			return err
		}
		wire = append(wire, float64(4*len(frame.Counts))/(1<<20)/d.Seconds())
	}
	t.set("dtrain.wire_mb_per_s", Median(wire), "MB/s", len(wire))
	return nil
}
