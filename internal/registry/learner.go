package registry

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"sourcelda"
	"sourcelda/internal/obs"
	"sourcelda/internal/persist"
)

// ErrNoLearner means the model exists (or could exist) but has no learning
// chain attached, so it cannot accept fed documents.
var ErrNoLearner = errors.New("registry: model has no learner attached")

// LearnerConfig tunes one model's continuous-learning loop. Zero values
// take the documented defaults.
type LearnerConfig struct {
	// QueueSize bounds the ingest queue in documents; a feed batch that
	// would overflow it is rejected whole with ErrOverloaded (HTTP 429)
	// rather than partially accepted (default 256).
	QueueSize int
	// RepublishEvery is how many appended documents trigger a republish: a
	// fresh flat bundle written atomically into ModelsDir so the watcher
	// hot-swaps the serving build (default 64).
	RepublishEvery int
	// CompactAfter is how many appended documents trigger a compaction
	// retrain — checkpoint, rebuild, CompactSweeps full-corpus sweeps — so
	// fed documents eventually influence the whole chain, not just their own
	// assignments. 0 disables compaction.
	CompactAfter int
	// CompactSweeps is the number of full-corpus sweeps per compaction
	// (default 10).
	CompactSweeps int
	// FoldInSweeps is the number of document-local Gibbs sweeps each fed
	// document gets when appended (default 3).
	FoldInSweeps int
	// ModelsDir is where republished bundles land — the same directory the
	// registry's watcher scans. Required.
	ModelsDir string
}

func (c LearnerConfig) withDefaults() LearnerConfig {
	if c.QueueSize < 1 {
		c.QueueSize = 256
	}
	if c.RepublishEvery < 1 {
		c.RepublishEvery = 64
	}
	if c.CompactSweeps < 1 {
		c.CompactSweeps = 10
	}
	if c.FoldInSweeps < 1 {
		c.FoldInSweeps = 3
	}
	return c
}

// maxFeedBatch caps how many queued documents one updater iteration folds
// in before checking the republish/compaction schedules.
const maxFeedBatch = 32

// learner drives one model's continuous learning: an ingest queue fed by
// POST /v1/models/{name}/feed, a background updater that folds queued
// documents into the warm chain, and the republish loop that exports the
// updated chain as a new bundle version for the watcher to hot-swap. The
// learner is keyed by model name but independent of the serving entry — it
// owns the write side (the chain), the entry owns the read side (the
// latest published snapshot).
type learner struct {
	name string
	reg  *Registry
	rt   *sourcelda.Runtime
	cfg  LearnerConfig

	// mu guards pending (documents accepted but not yet applied) and
	// stopped. The queue channel's capacity equals QueueSize and pending
	// never exceeds it, so sends after a successful reservation never block.
	mu      sync.Mutex
	pending int
	stopped bool
	queue   chan string

	cancel chan struct{}
	done   chan struct{}

	// stats are guarded by smu: the feed path is orders of magnitude colder
	// than the inference path, so a mutex is simpler than atomics and the
	// snapshot is consistent.
	smu            sync.Mutex
	docs           uint64 // documents appended to the chain
	dropped        uint64 // fed documents skipped (no in-vocabulary tokens)
	shed           uint64 // fed documents rejected because the queue was full
	republishes    uint64
	compactions    uint64
	sinceRepublish int
	sinceCompact   int
	updateLatency  *obs.Histogram
}

// FeedInfo is a point-in-time snapshot of one model's learner.
type FeedInfo struct {
	// Model is the model name the learner republishes under.
	Model string
	// Docs counts documents appended to the chain; Dropped counts fed
	// documents skipped for having no in-vocabulary tokens; Shed counts
	// documents rejected with 429 because the ingest queue was full.
	Docs, Dropped, Shed uint64
	// Republishes and Compactions count completed republish and compaction
	// cycles.
	Republishes, Compactions uint64
	// QueueDepth and QueueCapacity describe the ingest queue.
	QueueDepth, QueueCapacity int
	// ChainDocs and ChainSweeps describe the chain behind the learner.
	ChainDocs, ChainSweeps int
	// UpdateLatency is the cumulative histogram of append-batch latencies
	// (seconds per applied batch).
	UpdateLatency obs.HistogramSnapshot
}

// AttachLearner wires a warm chain runtime to the named model: documents
// accepted by Feed are folded into rt, and every cfg.RepublishEvery
// appended documents the updated chain is exported as a new flat bundle
// into cfg.ModelsDir for the watcher to hot-swap. An initial bundle is
// published synchronously so a learner-backed model serves without waiting
// for the first feed cycle. The runtime stays owned by the caller — Close
// it after the registry shuts down.
func (r *Registry) AttachLearner(name string, rt *sourcelda.Runtime, cfg LearnerConfig) error {
	if !validName.MatchString(name) {
		return fmt.Errorf("registry: invalid model name %q (want %s)", name, validName)
	}
	if rt == nil {
		return errors.New("registry: nil runtime")
	}
	cfg = cfg.withDefaults()
	if cfg.ModelsDir == "" {
		return errors.New("registry: learner needs a models directory to republish into")
	}
	l := &learner{
		name:          name,
		reg:           r,
		rt:            rt,
		cfg:           cfg,
		queue:         make(chan string, cfg.QueueSize),
		cancel:        make(chan struct{}),
		done:          make(chan struct{}),
		updateLatency: obs.NewHistogram(nil),
	}
	r.lmu.Lock()
	if r.learnerClosed {
		r.lmu.Unlock()
		return ErrClosed
	}
	if _, dup := r.learners[name]; dup {
		r.lmu.Unlock()
		return fmt.Errorf("registry: model %q already has a learner", name)
	}
	r.learners[name] = l
	r.lmu.Unlock()
	if err := l.republish(); err != nil {
		r.lmu.Lock()
		delete(r.learners, name)
		r.lmu.Unlock()
		return fmt.Errorf("registry: initial publish for %q: %w", name, err)
	}
	go l.run()
	r.cfg.Logger.Info("learner attached",
		"model", name, "feed_queue", cfg.QueueSize,
		"republish_every", cfg.RepublishEvery, "compact_after", cfg.CompactAfter)
	return nil
}

// Feed queues documents for the named model's learner ("" = default
// model). The whole batch is accepted or rejected: ErrOverloaded when it
// would overflow the ingest queue (HTTP 429 with Retry-After), ErrNoLearner
// when the model has no learner. Accepted documents are folded in
// asynchronously by the learner's updater goroutine.
func (r *Registry) Feed(name string, texts []string) error {
	if name == "" {
		name = r.cfg.DefaultModel
	}
	r.lmu.Lock()
	l := r.learners[name]
	r.lmu.Unlock()
	if l == nil {
		return ErrNoLearner
	}
	return l.offer(texts)
}

// FeedInfos snapshots every learner, sorted by model name.
func (r *Registry) FeedInfos() []FeedInfo {
	r.lmu.Lock()
	ls := make([]*learner, 0, len(r.learners))
	for _, l := range r.learners {
		ls = append(ls, l)
	}
	r.lmu.Unlock()
	out := make([]FeedInfo, len(ls))
	for i, l := range ls {
		out[i] = l.snapshot()
	}
	slices.SortFunc(out, func(a, b FeedInfo) int { return strings.Compare(a.Model, b.Model) })
	return out
}

// FeedInfo snapshots the named model's learner ("" = default).
func (r *Registry) FeedInfo(name string) (FeedInfo, error) {
	if name == "" {
		name = r.cfg.DefaultModel
	}
	r.lmu.Lock()
	l := r.learners[name]
	r.lmu.Unlock()
	if l == nil {
		return FeedInfo{}, ErrNoLearner
	}
	return l.snapshot(), nil
}

// closeLearners stops every learner and waits for their updaters to exit;
// called from Registry.Close. Documents still queued are dropped — feeding
// is best-effort ingestion, and callers that need durability keep their own
// source of record.
func (r *Registry) closeLearners() {
	r.lmu.Lock()
	r.learnerClosed = true
	ls := make([]*learner, 0, len(r.learners))
	for name, l := range r.learners {
		ls = append(ls, l)
		delete(r.learners, name)
	}
	r.lmu.Unlock()
	for _, l := range ls {
		l.stop()
	}
}

func (l *learner) stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	close(l.cancel)
	<-l.done
}

// offer reserves queue capacity for the whole batch, then enqueues it. The
// all-or-nothing check is what makes the 429 honest: a client never learns
// half its batch was dropped.
func (l *learner) offer(texts []string) error {
	if len(texts) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return ErrUnloaded
	}
	if l.pending+len(texts) > l.cfg.QueueSize {
		l.mu.Unlock()
		l.smu.Lock()
		l.shed += uint64(len(texts))
		l.smu.Unlock()
		return ErrOverloaded
	}
	l.pending += len(texts)
	l.mu.Unlock()
	for _, t := range texts {
		l.queue <- t
	}
	return nil
}

// run is the updater loop: drain a batch from the ingest queue, fold it
// into the chain, then let the compaction and republish schedules fire.
// One goroutine per learner — chain mutations are inherently serial
// (core.ChainRuntime requires it), so more workers would only contend.
func (l *learner) run() {
	defer close(l.done)
	for {
		var first string
		select {
		case <-l.cancel:
			return
		case first = <-l.queue:
		}
		batch := append(make([]string, 0, maxFeedBatch), first)
	fill:
		for len(batch) < maxFeedBatch {
			select {
			case t := <-l.queue:
				batch = append(batch, t)
			default:
				break fill
			}
		}
		l.apply(batch)
	}
}

// apply folds one batch into the chain and advances the compaction and
// republish schedules.
func (l *learner) apply(batch []string) {
	lg := l.reg.cfg.Logger
	start := time.Now()
	n, err := l.rt.Append(batch, l.cfg.FoldInSweeps)
	dur := time.Since(start)
	l.mu.Lock()
	l.pending -= len(batch)
	l.mu.Unlock()
	if err != nil {
		lg.Error("feed append failed", "model", l.name, "docs", len(batch), "error", err)
		return
	}
	l.updateLatency.Observe(dur.Seconds())
	l.smu.Lock()
	l.docs += uint64(n)
	l.dropped += uint64(len(batch) - n)
	l.sinceRepublish += n
	l.sinceCompact += n
	compact := l.cfg.CompactAfter > 0 && l.sinceCompact >= l.cfg.CompactAfter
	republish := l.sinceRepublish >= l.cfg.RepublishEvery
	l.smu.Unlock()
	lg.Info("feed batch applied",
		"model", l.name, "docs", n, "skipped", len(batch)-n,
		"chain_docs", l.rt.Docs(), "duration_ms", durMillis(dur))

	if compact {
		cstart := time.Now()
		if err := l.rt.Compact(l.cfg.CompactSweeps); err != nil {
			lg.Error("feed compaction failed", "model", l.name, "error", err)
		} else {
			l.smu.Lock()
			l.compactions++
			l.sinceCompact = 0
			l.smu.Unlock()
			lg.Info("feed chain compacted",
				"model", l.name, "sweeps", l.cfg.CompactSweeps,
				"chain_docs", l.rt.Docs(), "duration_ms", durMillis(time.Since(cstart)))
		}
	}
	if republish {
		if err := l.republish(); err != nil {
			// Republish failures are retried by the next cycle because
			// sinceRepublish is only reset on success.
			lg.Error("feed republish failed", "model", l.name, "error", err)
		}
	}
}

// republish snapshots the chain and writes it as a flat bundle into the
// models directory atomically, so the watcher only ever sees complete
// bundles and the swap costs the serving path nothing.
func (l *learner) republish() error {
	m, err := l.rt.Snapshot()
	if err != nil {
		return err
	}
	l.smu.Lock()
	version := fmt.Sprintf("feed-%d", l.docs)
	l.smu.Unlock()
	dst := filepath.Join(l.cfg.ModelsDir, l.name+BundleExt)
	if err := persist.WriteFileAtomic(dst, func(w io.Writer) error {
		return sourcelda.SaveBundleFlatNamed(w, m, l.name, version)
	}); err != nil {
		return err
	}
	l.smu.Lock()
	l.republishes++
	l.sinceRepublish = 0
	l.smu.Unlock()
	l.reg.cfg.Logger.Info("model republished",
		"model", l.name, "version", version, "chain_docs", l.rt.Docs(), "path", dst)
	return nil
}

func (l *learner) snapshot() FeedInfo {
	fi := FeedInfo{
		Model:         l.name,
		QueueCapacity: l.cfg.QueueSize,
		ChainDocs:     l.rt.Docs(),
		ChainSweeps:   l.rt.Sweeps(),
		UpdateLatency: l.updateLatency.Snapshot(),
	}
	l.mu.Lock()
	fi.QueueDepth = l.pending
	l.mu.Unlock()
	l.smu.Lock()
	fi.Docs = l.docs
	fi.Dropped = l.dropped
	fi.Shed = l.shed
	fi.Republishes = l.republishes
	fi.Compactions = l.compactions
	l.smu.Unlock()
	return fi
}
