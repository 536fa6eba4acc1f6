// Package sourcelda is a from-scratch Go implementation of Source-LDA
// (Wood, Tan, Wang, Arnold — "Source-LDA: Enhancing Probabilistic Topic
// Models Using Prior Knowledge Sources", ICDE 2017): a semi-supervised topic
// model that sets the Dirichlet priors of topic-word distributions from
// labeled knowledge-source articles, so inferred topics arrive labeled,
// stay consistent with prior knowledge, may deviate from it in a controlled
// way (the λ mechanism), and coexist with freely-discovered unknown topics.
//
// The package is a façade over the internal implementation. A minimal
// session:
//
//	builder := sourcelda.NewCorpusBuilder()
//	builder.AddDocument("d1", "pencil pencil umpire")
//	builder.AddDocument("d2", "ruler ruler baseball")
//	builder.AddKnowledgeArticle("School Supplies", schoolText)
//	builder.AddKnowledgeArticle("Baseball", baseballText)
//	corpus, source := builder.Build()
//
//	model, err := sourcelda.Fit(corpus, source, sourcelda.Options{
//		FreeTopics: 1,
//		Iterations: 500,
//	})
//	for _, topic := range model.Topics() {
//		fmt.Println(topic.Label, topic.TopWords(5))
//	}
//
// Baselines (LDA, EDA, CTM), the post-hoc labelers (JS divergence,
// TF-IDF/cosine IR labeling, counting, PMI), the evaluation metrics, and the
// synthetic workload generators used to reproduce the paper's experiments
// are exposed through companion types in this package.
package sourcelda

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
	"sourcelda/internal/infer"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/labeling"
	"sourcelda/internal/parallel"
	"sourcelda/internal/persist"
	"sourcelda/internal/textproc"
)

// Corpus is an opaque handle to a tokenized document collection.
type Corpus struct {
	c *corpus.Corpus
}

// NumDocuments returns the number of documents.
func (c *Corpus) NumDocuments() int { return c.c.NumDocs() }

// VocabularySize returns the number of distinct words.
func (c *Corpus) VocabularySize() int { return c.c.VocabSize() }

// TotalTokens returns the token count across all documents.
func (c *Corpus) TotalTokens() int { return c.c.TotalTokens() }

// Internal exposes the internal corpus for the experiment harness and
// advanced callers.
func (c *Corpus) Internal() *corpus.Corpus { return c.c }

// WrapCorpus adapts an internal corpus to the public handle.
func WrapCorpus(in *corpus.Corpus) *Corpus { return &Corpus{c: in} }

// KnowledgeSource is an opaque handle to a set of labeled articles.
type KnowledgeSource struct {
	s *knowledge.Source
}

// NumArticles returns the number of labeled articles.
func (k *KnowledgeSource) NumArticles() int { return k.s.Len() }

// Labels returns the article labels in order.
func (k *KnowledgeSource) Labels() []string { return k.s.Labels() }

// Internal exposes the internal source.
func (k *KnowledgeSource) Internal() *knowledge.Source { return k.s }

// WrapKnowledgeSource adapts an internal source to the public handle.
func WrapKnowledgeSource(in *knowledge.Source) *KnowledgeSource { return &KnowledgeSource{s: in} }

// CorpusBuilder accumulates raw-text documents and knowledge articles,
// tokenizing and interning them into one shared vocabulary.
type CorpusBuilder struct {
	c        *corpus.Corpus
	stop     *textproc.Stopwords
	articles []*knowledge.Article
	pending  []pendingArticle
}

type pendingArticle struct{ label, text string }

// NewCorpusBuilder returns a builder with the default English stop list.
func NewCorpusBuilder() *CorpusBuilder {
	return &CorpusBuilder{c: corpus.New(), stop: textproc.DefaultStopwords()}
}

// SetStopwords replaces the stop list (nil disables filtering).
func (b *CorpusBuilder) SetStopwords(words []string) {
	if words == nil {
		b.stop = nil
		return
	}
	b.stop = textproc.NewStopwords(words)
}

// AddDocument tokenizes raw text into the corpus.
func (b *CorpusBuilder) AddDocument(name, text string) {
	b.c.AddText(name, text, b.stop)
}

// AddKnowledgeArticle registers a labeled article. Articles are encoded
// against the final vocabulary at Build time so article words also appear in
// the shared vocabulary.
func (b *CorpusBuilder) AddKnowledgeArticle(label, text string) {
	b.pending = append(b.pending, pendingArticle{label, text})
}

// Build finalizes the corpus and knowledge source. It returns an error for
// duplicate article labels.
func (b *CorpusBuilder) Build() (*Corpus, *KnowledgeSource, error) {
	arts := make([]*knowledge.Article, 0, len(b.pending))
	for _, p := range b.pending {
		arts = append(arts, knowledge.NewArticleFromText(p.label, p.text, b.c.Vocab, b.stop, true))
	}
	src, err := knowledge.NewSource(arts)
	if err != nil {
		return nil, nil, err
	}
	return &Corpus{c: b.c}, &KnowledgeSource{s: src}, nil
}

// Sampler selects the per-token sampling kernel used during training.
type Sampler int

const (
	// SamplerAuto is the default: it picks the kernel by topic count T (free
	// plus source topics) — the dense serial scan below 200 topics, where it
	// is the faster kernel, and the sparse kernel from 200 up. Below the
	// threshold it is the same chain as SamplerSerial, at and above it the
	// same chain as SamplerSparse. Resuming a checkpoint or chain archive
	// under SamplerAuto takes whichever of the two kernels wrote it.
	SamplerAuto Sampler = iota
	// SamplerSerial is Algorithm 1's sequential scan over all topics.
	SamplerSerial
	// SamplerSparse selects the SparseLDA-style bucket-decomposed kernel:
	// per-token cost proportional to the token's topic sparsity instead of
	// the total topic count. The biggest win on corpora with many topics
	// (a few hundred and up) once the chain has concentrated; the measured
	// crossover against the dense scan is in docs/OPERATIONS.md.
	SamplerSparse
)

// retiredSamplers are the values the paper's within-token parallel kernels
// (Algorithms 3 and 2) held before they moved to the Fig. 8(f) experiment.
// A chain archive header — or a caller built against the old constants —
// carrying one gets core.ErrRetiredSampler by name instead of a silent
// serial chain.
var retiredSamplers = map[Sampler]string{3: "simple-parallel", 4: "prefix-sums"}

// LambdaPrior configures the divergence-from-source behaviour.
type LambdaPrior struct {
	// Fixed, when true, uses Lambda as a single fixed exponent; otherwise λ
	// is drawn from N(Mu, Sigma) and integrated out during inference.
	Fixed  bool
	Lambda float64
	Mu     float64
	Sigma  float64
}

// Options configures Fit. Zero values take the documented defaults.
type Options struct {
	// FreeTopics is the number of unlabeled topics learned alongside the
	// knowledge-source topics (the paper's K). 0 yields the bijective model.
	FreeTopics int
	// Alpha and Beta are the symmetric Dirichlet priors (defaults 50/T and
	// 200/V per the paper's experiments when left zero).
	Alpha, Beta float64
	// Lambda configures the λ prior. The zero value uses the paper's full
	// model with µ = 0.7, σ = 0.3 and g-smoothing enabled. A Fixed prior is
	// the raw exponent δ^λ — no smoothing, µ and σ unused — which is also
	// what srclda / srcldactl -lambda X train.
	Lambda *LambdaPrior
	// Iterations is the number of Gibbs sweeps (default 1000).
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
	// Threads bounds the workers sweeping document shards when Shards > 0.
	// It is a resource bound only: it never shapes the chain, a sequential
	// sweep ignores it, and a checkpointed run may resume under any value.
	Threads int
	// Sampler selects the per-token sampling kernel. The kernel shapes the
	// chain's random trajectory, so an explicit SamplerSerial or
	// SamplerSparse resumes only a run sampled by that kernel; SamplerAuto
	// resumes a run sampled by either.
	Sampler Sampler
	// Shards > 0 switches sweeps to the document-sharded data-parallel mode:
	// the corpus is split into that many document shards swept concurrently
	// against shard-local count copies reconciled every sweep. An explicit
	// Threads bounds the workers executing them; otherwise one worker per
	// shard is used (capped at the document and CPU counts). One shard
	// reproduces the default chain exactly; more shards trade within-sweep
	// count freshness for multi-core throughput.
	Shards int
	// TraceLikelihood records a per-iteration log-likelihood trace.
	TraceLikelihood bool
	// Checkpoint, when non-nil, persists the full sampler state to
	// Checkpoint.Dir every Checkpoint.EverySweeps sweeps with atomic writes
	// and bounded retention. A run killed between checkpoints loses only the
	// sweeps since the last one: Resume reconstructs the chain from a
	// checkpoint and continues it bit-for-bit.
	Checkpoint *Checkpointing
	// Progress, when non-nil, runs after every sweep with the sweep index,
	// the latest log-likelihood (when TraceLikelihood is set), the sweep's
	// throughput, and the path of any checkpoint just written. Returning
	// ErrStopTraining ends training early with the partial fit; any other
	// error aborts it.
	Progress ProgressFunc
}

// Checkpointing configures periodic training checkpoints. Zero values take
// the documented defaults.
type Checkpointing struct {
	// Dir is the directory checkpoint files are written into (created if
	// missing). Required.
	Dir string
	// EverySweeps is the checkpoint cadence (default 50). Each checkpoint
	// costs a serialization of roughly 4 bytes per corpus token plus an
	// fsync, so very small values tax training throughput.
	EverySweeps int
	// Retain bounds how many of the newest checkpoints are kept (default 3;
	// negative keeps all).
	Retain int
}

// Progress is the per-sweep training report passed to ProgressFunc.
type Progress struct {
	// Sweep is the 1-based index of the sweep that just completed; it keeps
	// counting across Resume, so a resumed run reports sweeps t+1..T.
	Sweep int
	// TotalSweeps is the run's target sweep count (Options.Iterations).
	TotalSweeps int
	// LogLikelihood is the collapsed joint log-likelihood after this sweep,
	// or NaN when Options.TraceLikelihood is off (computing it costs a full
	// corpus scan, so it is never computed solely for progress reporting).
	LogLikelihood float64
	// TokensPerSec is the sweep's sampling throughput.
	TokensPerSec float64
	// SweepSeconds is the sweep's wall time.
	SweepSeconds float64
	// CheckpointPath is the checkpoint file this sweep produced, or "" for
	// sweeps that didn't checkpoint.
	CheckpointPath string
	// CheckpointSeconds is how long that checkpoint write took, or 0 for
	// sweeps that didn't checkpoint.
	CheckpointSeconds float64
	// Kernel names the sampling kernel the chain runs ("serial" or
	// "sparse"). Under SamplerAuto a resumed chain runs the kernel that
	// wrote its checkpoint, which need not be the one the topic count picks.
	Kernel string
}

// ProgressFunc observes training after each sweep — progress bars, eval
// during training, checkpoint logging. Returning ErrStopTraining stops
// training cleanly (Fit and Resume return the partial model); any other
// error aborts the fit and is returned to the caller.
type ProgressFunc func(p Progress) error

// ErrStopTraining is the sentinel a ProgressFunc returns to end training
// early without signaling failure.
var ErrStopTraining = core.ErrStopTraining

// Model is a fitted Source-LDA model. It is safe for concurrent use once
// fitted or loaded: all state is read-only except the lazily-built frozen
// inference view (guarded by a sync.Once) and, for models loaded from a
// flat bundle, the lazily materialized per-topic rows (guarded by a mutex).
//
// A model loaded from a memory-mapped flat bundle (LoadBundleFile) serves
// its topic-word conditionals directly from the mapped file pages. Such a
// model carries a Close obligation: Close releases the owner's reference to
// the mapping, and the file is unmapped once every Inferrer created from the
// model has also fully drained — so a registry can hot-swap and Close the
// old model while in-flight batches are still scoring against it. For every
// other model Close is a no-op, so callers may close unconditionally.
type Model struct {
	res    *Result
	vocab  *textproc.Vocabulary
	source *knowledge.Source
	info   BundleInfo

	frozenOnce sync.Once
	frozen     *core.Frozen
	frozenErr  error

	// backing, when non-nil, is the mapped flat bundle the frozen view's cond
	// slab aliases.
	backing *mapping

	// lazyPhi caches per-topic φ rows materialized on demand from the cond
	// slab when the model was loaded without explicit Phi (flat bundles).
	phiMu   sync.Mutex
	lazyPhi [][]float64
}

// mapping is the memory-mapped file behind a flat-bundle model. Its
// references are the owner's (released by Model.Close) plus one per live
// Inferrer (released when that Inferrer drains); the file is unmapped when
// the last one goes, which is what lets a hot swap close the old model
// immediately while its last in-flight batch finishes.
type mapping struct {
	refs
	fb *persist.FlatBundle
}

// refs is an owner-plus-pins reference count. The owner's reference is
// held from construction until close; every successful acquire holds a pin
// until its release. Once the owner has closed and no pin remains the
// counter has drained: onDrain (if set) runs exactly once, and acquire fails
// from then on.
type refs struct {
	mu      sync.Mutex
	pins    int
	closed  bool // owner reference released
	onDrain func()
}

// acquire pins one reference, failing once the counter has drained.
func (r *refs) acquire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed && r.pins == 0 {
		return false
	}
	r.pins++
	return true
}

// release drops one pin.
func (r *refs) release() {
	r.mu.Lock()
	if r.pins == 0 {
		r.mu.Unlock()
		panic("sourcelda: reference released more times than acquired")
	}
	r.pins--
	r.unlock()
}

// close releases the owner's reference; later calls do nothing.
func (r *refs) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.unlock()
}

// unlock releases r.mu and, if r has just drained, runs onDrain.
func (r *refs) unlock() {
	var onDrain func()
	if r.closed && r.pins == 0 {
		onDrain, r.onDrain = r.onDrain, nil
	}
	r.mu.Unlock()
	if onDrain != nil {
		onDrain()
	}
}

// drained reports whether the owner has closed and no pin remains.
func (r *refs) drained() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed && r.pins == 0
}

// pin takes a reference on the model's mapping, if it has one, and fails
// once the mapping has been released. Pair every successful pin with unpin.
func (m *Model) pin() bool { return m.backing == nil || m.backing.acquire() }

func (m *Model) unpin() {
	if m.backing != nil {
		m.backing.release()
	}
}

// Close releases the model's reference to its memory-mapped bundle, if any.
// The mapping is unmapped once every Inferrer created from this model has
// also drained; materialized data (topic rows already rendered, labels,
// vocabulary) stays valid, but new Inferrers and un-materialized topic rows
// fail or come back empty after the unmap. Close is idempotent and a no-op
// for models that do not serve from a mapping.
func (m *Model) Close() error {
	if m.backing != nil {
		m.backing.close()
	}
	return nil
}

// Mapped reports whether the model serves its topic-word conditionals from a
// memory-mapped flat bundle (and therefore carries a Close obligation).
func (m *Model) Mapped() bool { return m.backing != nil }

// MappedBytes returns the bytes of bundle file currently memory-mapped for
// this model: 0 for heap-backed models and after the mapping is released.
// Observability surfaces sum this across loaded models to report the
// process's mapped-bundle footprint.
func (m *Model) MappedBytes() int64 {
	if m.backing == nil {
		return 0
	}
	return m.backing.fb.MappedBytes()
}

// NumTopics returns the number of topics without materializing anything.
func (m *Model) NumTopics() int { return len(m.res.Labels) }

// BundleInfo is deployment provenance for a model: the logical name and
// version a serving registry knows it by, the chain-options fingerprint of
// the run that trained it, and when training finished. Fit and Resume stamp
// ChainDigest and TrainedAt; Name and Version are assigned when the model
// is saved as a named bundle (SaveBundleNamed) or loaded from one.
type BundleInfo struct {
	// Name is the logical model name ("" when never assigned).
	Name string
	// Version distinguishes successive builds of the same named model.
	Version string
	// ChainDigest fingerprints the chain-shaping training options as 16
	// lowercase hex digits — the same digest training checkpoints embed, so
	// a served bundle is traceable to its exact training configuration.
	ChainDigest string
	// TrainedAt is when training finished (UTC), zero when unknown.
	TrainedAt time.Time
}

// BundleInfo returns the model's provenance. Fields are zero when unknown
// (e.g. a model loaded from a snapshot or a bundle written before metadata
// existed).
func (m *Model) BundleInfo() BundleInfo { return m.info }

// Result aliases the internal result snapshot.
type Result = core.Result

// Topic describes one fitted topic.
type Topic struct {
	// Index is the topic's position in the model.
	Index int
	// Label is the knowledge-source label, or "topic-<i>" for free topics.
	Label string
	// IsSourceTopic reports whether the topic is bound to a knowledge
	// article.
	IsSourceTopic bool
	// Weight is the fraction of corpus tokens assigned to the topic.
	Weight float64

	// phi is the topic's word distribution when the constructor resolved it
	// (Topics); nil means resolve it from m when a method first needs it
	// (TopTopics), so ranking a document's mixture touches no φ row.
	phi []float64
	m   *Model
}

// row returns the topic's word distribution, resolving it on demand.
func (t Topic) row() []float64 {
	if t.phi != nil || t.m == nil {
		return t.phi
	}
	return t.m.topicPhi(t.Index)
}

// TopWords returns the topic's n most probable words.
func (t Topic) TopWords(n int) []string {
	ids := textproc.TopWords(t.row(), n)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = t.m.vocab.Word(id)
	}
	return out
}

// Probability returns the topic's probability for a word (0 for unknown
// words).
func (t Topic) Probability(word string) float64 {
	id, ok := t.m.vocab.ID(word)
	if !ok {
		return 0
	}
	return t.row()[id]
}

// CoreOptions translates façade options into the internal chain options. It
// is the only mapping — every façade entry point calls it, cmd/srclda trains
// through Fit/Resume and cmd/srcldactl derives its dtrain.ChainSpec from the
// result — so the paper's defaults (α = 50/T, β = 200/V, λ ~ N(0.7, 0.3) under
// g-smoothing), a fixed λ as the raw exponent δ^λ, "Shards > 0 ⇒ sharded
// sweep" and "auto is sparse from sparseMinTopics topics, serial below" are
// stated here and nowhere else, and a resumed run can never rebuild its chain
// under another configuration. The digest hashes the resolved kernel; only
// resumeOptions, on the restore paths, may move an auto chain to the other
// kernel, and only to the one its checkpoint was written under. The shard
// count is the caller's number: the CPU-capped DefaultShardWorkers only feeds
// Threads, which no digest hashes. It fails on a Sampler value that names no
// kernel this build carries.
func CoreOptions(c *Corpus, k *KnowledgeSource, opts Options) (core.Options, error) {
	if c == nil || k == nil {
		return core.Options{}, errors.New("sourcelda: nil corpus or knowledge source")
	}
	T := opts.FreeTopics + k.s.Len()
	coreOpts := core.Options{
		NumFreeTopics:   opts.FreeTopics,
		Alpha:           opts.Alpha,
		Beta:            opts.Beta,
		Iterations:      opts.Iterations,
		Seed:            opts.Seed,
		TraceLikelihood: opts.TraceLikelihood,
	}
	if coreOpts.Alpha == 0 {
		coreOpts.Alpha = 50.0 / float64(T)
	}
	if coreOpts.Beta == 0 {
		coreOpts.Beta = 200.0 / float64(c.c.VocabSize())
	}
	if coreOpts.Iterations <= 0 {
		coreOpts.Iterations = 1000
	}
	prior := LambdaPrior{Mu: 0.7, Sigma: 0.3}
	if opts.Lambda != nil {
		prior = *opts.Lambda
	}
	if prior.Fixed {
		coreOpts.LambdaMode = core.LambdaFixed
		coreOpts.Lambda = prior.Lambda
	} else {
		coreOpts.LambdaMode = core.LambdaIntegrated
		coreOpts.Mu, coreOpts.Sigma = prior.Mu, prior.Sigma
		coreOpts.UseSmoothing = true
	}
	if opts.Shards > 0 {
		coreOpts.SweepMode = core.SweepShardedDocs
		coreOpts.Shards = opts.Shards
		if opts.Threads > 0 {
			// An explicit Threads setting is a resource bound; honor it.
			coreOpts.Threads = opts.Threads
		} else {
			coreOpts.Threads = core.DefaultShardWorkers(opts.Shards, c.c.NumDocs())
		}
	}
	switch opts.Sampler {
	case SamplerAuto:
		coreOpts.Sampler = core.SamplerSerial
		if T >= sparseMinTopics {
			coreOpts.Sampler = core.SamplerSparse
		}
	case SamplerSerial:
		coreOpts.Sampler = core.SamplerSerial
	case SamplerSparse:
		coreOpts.Sampler = core.SamplerSparse
	default:
		if name, ok := retiredSamplers[opts.Sampler]; ok {
			return core.Options{}, fmt.Errorf("sourcelda: Options.Sampler %d (%s): %w", int(opts.Sampler), name, core.ErrRetiredSampler)
		}
		return core.Options{}, fmt.Errorf("sourcelda: Options.Sampler is %d; it must be SamplerAuto, SamplerSerial or SamplerSparse", int(opts.Sampler))
	}
	return coreOpts, nil
}

// sparseMinTopics is the topic count T = free + source topics from which
// SamplerAuto resolves to the sparse kernel. srclda end to end on a 2-vCPU
// Xeon, default flags, each workload's bench-sized corpus, alternating pairs
// (tokens/s, sparse ÷ serial):
//
//	T = 72    870 k vs 797 k    0.92×
//	T = 136   548 k vs 508 k    0.93×
//	T = 204   (BenchmarkSweepModes skewed-T204, per sweep)    1.5×
//	T = 264   302 k vs 346 k    1.15×
//	T = 1032  83.5 k vs 115.1 k 1.38×
//
// The crossover lies between 136 and 204; 200 keeps every workload below it
// on the serial chain it trained before the rule existed.
const sparseMinTopics = 200

// resumeOptions returns the options a checkpoint restores under. An explicit
// kernel is taken as given, and Restore refuses a checkpoint another kernel
// wrote. Under SamplerAuto the kernel is whichever live one the checkpoint's
// digest names, so a chain written before auto chose by topic count (when
// auto was serial at every T) still resumes bit for bit. A digest neither
// kernel matches is left to Restore to report.
func resumeOptions(coreOpts core.Options, sampler Sampler, ck *core.Checkpoint) core.Options {
	if sampler != SamplerAuto || ck == nil {
		return coreOpts
	}
	for _, kind := range []core.SamplerKind{core.SamplerSerial, core.SamplerSparse} {
		o := coreOpts
		o.Sampler = kind
		if o.ChainDigest() == ck.OptionsDigest {
			return o
		}
	}
	return coreOpts
}

// Fit trains Source-LDA on the corpus with the knowledge source.
func Fit(c *Corpus, k *KnowledgeSource, opts Options) (*Model, error) {
	m, coreOpts, err := train(c, k, opts, nil)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return &Model{res: m.Result(), vocab: c.c.Vocab, source: k.s, info: trainedInfo(coreOpts)}, nil
}

// train is the path every training entry point takes: map the options once,
// build the chain — or restore it from ck — and run it to its sweep target.
// The caller owns (and closes) the returned chain.
func train(c *Corpus, k *KnowledgeSource, opts Options, ck *core.Checkpoint) (*core.Model, core.Options, error) {
	coreOpts, err := CoreOptions(c, k, opts)
	if err != nil {
		return nil, core.Options{}, err
	}
	var m *core.Model
	if ck != nil {
		coreOpts = resumeOptions(coreOpts, opts.Sampler, ck)
		m, err = core.Restore(c.c, k.s, coreOpts, ck)
	} else {
		m, err = core.NewModel(c.c, k.s, coreOpts)
	}
	if err != nil {
		return nil, core.Options{}, err
	}
	if err := runTraining(m, c, opts, coreOpts.Iterations); err != nil {
		m.Close()
		return nil, core.Options{}, err
	}
	return m, coreOpts, nil
}

// trainedInfo stamps a freshly trained model's provenance: the chain-options
// digest (identical to the one its checkpoints embed) and the completion
// time.
func trainedInfo(coreOpts core.Options) BundleInfo {
	return BundleInfo{
		ChainDigest: fmt.Sprintf("%016x", coreOpts.ChainDigest()),
		TrainedAt:   time.Now().UTC().Truncate(time.Second),
	}
}

// Resume reconstructs a mid-run chain from a checkpoint written during an
// earlier Fit (or Resume) over the same corpus, knowledge source and
// options, and trains the remaining sweeps. path may be a checkpoint file
// or a checkpoint directory (the newest checkpoint is chosen) — pointing it
// at a crashed run's Options.Checkpoint.Dir is the recovery path.
//
// Options.Iterations is the run's total sweep target, exactly as in Fit: a
// 1000-sweep run checkpointed at sweep 600 resumes with the same options
// and trains the remaining 400. The resumed chain continues the original
// bit for bit, so the final model is identical to one from an uninterrupted
// run (iteration wall-clock times excepted). Resuming with options that
// change the chain (seed, priors, λ treatment, kernel, sweep mode, shard
// count) fails with a descriptive error; under SamplerAuto the run resumes on
// whichever kernel wrote the checkpoint.
func Resume(path string, c *Corpus, k *KnowledgeSource, opts Options) (*Model, error) {
	ck, err := persist.LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	m, coreOpts, err := train(c, k, opts, ck)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return &Model{res: m.Result(), vocab: c.c.Vocab, source: k.s, info: trainedInfo(coreOpts)}, nil
}

// runTraining drives the chain from its current sweep to totalSweeps,
// wiring the facade's checkpointing and progress reporting into the
// per-sweep hook. ErrStopTraining from the progress hook is a clean early
// stop, not an error.
func runTraining(m *core.Model, c *Corpus, opts Options, totalSweeps int) error {
	remaining := totalSweeps - m.Sweeps()
	if remaining <= 0 {
		return nil
	}
	var ckw *persist.CheckpointWriter
	every := 0
	if opts.Checkpoint != nil {
		every = opts.Checkpoint.EverySweeps
		if every <= 0 {
			every = 50
		}
		var err error
		ckw, err = persist.NewCheckpointWriter(opts.Checkpoint.Dir, opts.Checkpoint.Retain)
		if err != nil {
			return err
		}
	}
	totalTokens := c.c.TotalTokens()
	kernel := m.Options().Sampler.String()
	err := m.RunWithHook(remaining, func(sweep int, cm *core.Model) error {
		path := ""
		ckSecs := 0.0
		if ckw != nil && sweep%every == 0 {
			start := time.Now()
			p, err := ckw.Write(cm.Checkpoint())
			if err != nil {
				return err
			}
			path, ckSecs = p, time.Since(start).Seconds()
		}
		if opts.Progress == nil {
			return nil
		}
		p := Progress{
			Sweep:             sweep,
			TotalSweeps:       totalSweeps,
			LogLikelihood:     math.NaN(),
			CheckpointPath:    path,
			CheckpointSeconds: ckSecs,
			Kernel:            kernel,
		}
		if opts.TraceLikelihood {
			if trace := cm.LikelihoodTrace; len(trace) > 0 {
				p.LogLikelihood = trace[len(trace)-1]
			}
		}
		if times := cm.IterationTimes; len(times) > 0 {
			p.SweepSeconds = times[len(times)-1].Seconds()
			if p.SweepSeconds > 0 {
				p.TokensPerSec = float64(totalTokens) / p.SweepSeconds
			}
		}
		return opts.Progress(p)
	})
	if errors.Is(err, ErrStopTraining) {
		return nil
	}
	return err
}

// Topics returns all fitted topics sorted by descending corpus weight.
func (m *Model) Topics() []Topic {
	var totalTokens int
	for _, n := range m.res.TokenCounts {
		totalTokens += n
	}
	out := make([]Topic, m.NumTopics())
	for t := range out {
		w := 0.0
		if totalTokens > 0 {
			w = float64(m.res.TokenCounts[t]) / float64(totalTokens)
		}
		out[t] = Topic{
			Index:         t,
			Label:         m.res.Labels[t],
			IsSourceTopic: m.res.SourceIndices[t] >= 0,
			Weight:        w,
			phi:           m.topicPhi(t),
			m:             m,
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}

// topicPhi returns topic t's word distribution. Models loaded from a flat
// bundle carry no Phi rows — the bundle stores only the transposed cond
// slab — so rows are materialized lazily (one O(V) column gather each) and
// cached, keeping a cold model's resident cost at its metadata until someone
// actually renders topics. Materialization pins the mapped pages for its
// duration; once the mapping is fully released a not-yet-materialized row
// comes back nil (rendering as an empty word list) rather than faulting.
func (m *Model) topicPhi(t int) []float64 {
	if m.res.Phi != nil {
		return m.res.Phi[t]
	}
	m.phiMu.Lock()
	defer m.phiMu.Unlock()
	if m.lazyPhi == nil {
		m.lazyPhi = make([][]float64, m.NumTopics())
	}
	if row := m.lazyPhi[t]; row != nil {
		return row
	}
	if !m.pin() {
		return nil
	}
	defer m.unpin()
	row := m.frozen.TopicRow(t)
	m.lazyPhi[t] = row
	return row
}

// DiscoveredTopics returns source topics present in at least minDocs
// documents — the superset-reduction view (§III-C3).
func (m *Model) DiscoveredTopics(minDocs int) []Topic {
	var out []Topic
	for _, t := range m.Topics() {
		if !t.IsSourceTopic {
			continue
		}
		if m.res.DocFrequencies[t.Index] >= minDocs {
			out = append(out, t)
		}
	}
	return out
}

// Raw returns the internal result snapshot for advanced use (experiment
// harness, evaluation). For models loaded from a flat bundle the snapshot
// has nil Phi and Theta — the flat format stores the transposed serving slab
// and no training mixtures; use Topics/TopTopics (which materialize rows on
// demand) or keep the JSON bundle for analysis workloads.
func (m *Model) Raw() *Result { return m.res }

// DocumentTopics returns document d's topic mixture.
func (m *Model) DocumentTopics(d int) ([]float64, error) {
	if d < 0 || d >= len(m.res.Theta) {
		return nil, fmt.Errorf("sourcelda: document %d out of range", d)
	}
	out := make([]float64, len(m.res.Theta[d]))
	copy(out, m.res.Theta[d])
	return out, nil
}

// ErrNoKnownTokens reports that a document to be inferred contains no
// in-vocabulary tokens, so there is nothing to condition the fold-in chain
// on.
var ErrNoKnownTokens = errors.New("sourcelda: document has no in-vocabulary tokens")

// InferOptions configures fold-in inference on unseen documents. Zero
// values take the documented defaults.
type InferOptions struct {
	// BurnIn is the number of discarded initial Gibbs sweeps per document
	// (0 = infer.DefaultBurnIn, 20; a negative value requests no burn-in at
	// all).
	BurnIn int
	// Samples is the number of post-burn-in sweeps averaged into the
	// mixture (0 = infer.DefaultSamples, 10).
	Samples int
	// Seed makes inference reproducible. Results are a pure function of
	// (model, options, document content): every document draws from its own
	// deterministic RNG stream keyed by seed and token content, so batching,
	// batch order and worker count never change a document's mixture.
	Seed int64
	// Workers bounds the goroutines scoring an InferBatch concurrently
	// (default 1, sequential).
	Workers int
}

// DocumentInference is the outcome of folding one unseen document into a
// fitted model.
type DocumentInference struct {
	// Topics is the inferred mixture over the model's topics, in model
	// topic order (the same labeled topics Training produced; index into
	// Model.Topics via Topic.Index, or Raw().Labels).
	Topics []float64
	// KnownTokens and UnknownTokens count the document's in- and
	// out-of-vocabulary tokens. Unknown tokens carry no signal and are
	// skipped.
	KnownTokens, UnknownTokens int
}

// TopTopics returns the n heaviest topics of the mixture as Topic values
// (descending weight, ties broken by lower index). Their word distributions
// are resolved only if TopWords or Probability is called: an inference
// response that serialises index, label and weight never materializes a φ
// row of a mapped model.
func (m *Model) TopTopics(d *DocumentInference, n int) []Topic {
	ids := textproc.TopWords(d.Topics, n) // same argsort, reused for topics
	out := make([]Topic, len(ids))
	for i, t := range ids {
		out[i] = Topic{
			Index:         t,
			Label:         m.res.Labels[t],
			IsSourceTopic: m.res.SourceIndices[t] >= 0,
			Weight:        d.Topics[t],
			m:             m,
		}
	}
	return out
}

// engine lazily builds the frozen inference view (one transpose of Phi; the
// view is immutable and shared by every subsequent Infer/InferBatch call)
// and wraps it with the requested sweep schedule.
func (m *Model) engine(opts InferOptions) (*infer.Engine, error) {
	m.frozenOnce.Do(func() {
		m.frozen, m.frozenErr = core.NewFrozen(m.res)
	})
	if m.frozenErr != nil {
		return nil, m.frozenErr
	}
	return infer.New(m.frozen, infer.Options{
		BurnIn:  opts.BurnIn,
		Samples: opts.Samples,
		Seed:    opts.Seed,
	})
}

// Infer scores one unseen raw-text document against the fitted model
// without refitting: the text is tokenized and encoded against the training
// vocabulary, then folded in by collapsed Gibbs with the topic-word
// statistics locked. It returns ErrNoKnownTokens when no token survives
// vocabulary encoding. Deterministic given InferOptions.Seed.
func (m *Model) Infer(text string, opts InferOptions) (*DocumentInference, error) {
	out, err := m.InferBatch([]string{text}, opts)
	if err != nil {
		return nil, err
	}
	if out[0] == nil {
		return nil, ErrNoKnownTokens
	}
	return out[0], nil
}

// InferBatch scores many documents concurrently over opts.Workers
// goroutines. The returned slice is positionally aligned with texts;
// entries are nil for documents with no in-vocabulary tokens. Each
// document's result is bit-for-bit identical to a single Infer call on it.
func (m *Model) InferBatch(texts []string, opts InferOptions) ([]*DocumentInference, error) {
	inf, err := m.NewInferrer(opts)
	if err != nil {
		return nil, err
	}
	defer inf.Close()
	return inf.InferBatch(texts), nil
}

// CountKnownTokens reports how many of the text's tokens are in the model
// vocabulary — a cheap pre-check (no sampling) for whether Infer would
// return ErrNoKnownTokens.
func (m *Model) CountKnownTokens(text string) int {
	n := 0
	for _, tok := range textproc.Tokenize(text) {
		if _, ok := m.vocab.ID(tok); ok {
			n++
		}
	}
	return n
}

// Inferrer is a reusable inference session over a fitted model: the sweep
// schedule is pinned at construction, so a serving loop builds the engine
// once instead of per batch. Safe for concurrent use until Close. It starts
// no goroutine of its own: a multi-document InferBatch with Workers > 1
// spreads over a worker pool that lives for that call only.
//
// The session is reference-counted for hot-swap serving: Acquire/Release
// pin it across a unit of work, and Close (the owner's release) lets it
// drain only once every outstanding pin has been released. A registry can
// therefore swap a model's active Inferrer atomically and let the old
// handle drain behind in-flight requests instead of blocking or failing
// them.
type Inferrer struct {
	m       *Model
	e       *infer.Engine
	workers int
	refs    refs
}

// NewInferrer builds a reusable inference session; Close it when done. A
// session over a memory-mapped model holds its own reference to the
// mapping, released only when the session fully drains — so the model may
// be Closed while batches are still in flight, and the file is unmapped
// strictly after the last of them finishes.
func (m *Model) NewInferrer(opts InferOptions) (*Inferrer, error) {
	if !m.pin() {
		return nil, errors.New("sourcelda: model is closed (its mapped bundle has been released)")
	}
	e, err := m.engine(opts)
	if err != nil {
		m.unpin()
		return nil, err
	}
	return &Inferrer{m: m, e: e, workers: opts.Workers, refs: refs{onDrain: m.unpin}}, nil
}

// Model returns the fitted model this session scores against.
func (inf *Inferrer) Model() *Model { return inf.m }

// Acquire pins the session for a unit of work, returning false when it has
// already fully drained (Close called and every pin released). Pair every
// successful Acquire with exactly one Release.
func (inf *Inferrer) Acquire() bool { return inf.refs.acquire() }

// Release unpins one Acquire; the last release after Close drains the
// session and releases its reference on the model's mapping.
func (inf *Inferrer) Release() { inf.refs.release() }

// Close releases the owner's reference to the session. The session drains
// once no Acquire pins remain; until then in-flight batches finish
// normally. The Inferrer must not be used after Close except through still
// outstanding Acquire pins; Close is safe to call more than once.
func (inf *Inferrer) Close() { inf.refs.close() }

// Closed reports whether the session has fully drained and released its
// reference on the model's mapping.
func (inf *Inferrer) Closed() bool { return inf.refs.drained() }

// Infer scores one document; see Model.Infer.
func (inf *Inferrer) Infer(text string) (*DocumentInference, error) {
	out := inf.InferBatch([]string{text})
	if out[0] == nil {
		return nil, ErrNoKnownTokens
	}
	return out[0], nil
}

// InferBatch scores many documents concurrently; see Model.InferBatch. It
// pins the session for the duration of the batch, so a concurrent Close
// defers the drain until the batch completes. It never fails: entries are
// nil for documents with no in-vocabulary tokens. Using a fully drained
// session is a caller bug and panics.
func (inf *Inferrer) InferBatch(texts []string) []*DocumentInference {
	if !inf.Acquire() {
		panic("sourcelda: Inferrer used after it drained")
	}
	defer inf.Release()
	docs := make([][]int, len(texts))
	for i, text := range texts {
		docs[i] = encodeForInference(inf.m.vocab, text)
	}
	var pool *parallel.Pool
	if inf.workers > 1 && len(docs) > 1 {
		pool = parallel.NewPool(min(inf.workers, len(docs)))
		defer pool.Close()
	}
	scored := inf.e.InferBatch(docs, pool)
	out := make([]*DocumentInference, len(texts))
	for i, d := range scored {
		if d.Theta == nil {
			continue
		}
		out[i] = &DocumentInference{
			Topics:        d.Theta,
			KnownTokens:   d.Known,
			UnknownTokens: d.Unknown,
		}
	}
	return out
}

// encodeForInference tokenizes text against the training vocabulary,
// mapping out-of-vocabulary tokens to -1 (rather than dropping them as
// EncodeTokens does) so the inference engine can report how much of the
// document it actually conditioned on.
func encodeForInference(v *textproc.Vocabulary, text string) []int {
	tokens := textproc.Tokenize(text)
	out := make([]int, len(tokens))
	for i, tok := range tokens {
		if id, ok := v.ID(tok); ok {
			out[i] = id
		} else {
			out[i] = -1
		}
	}
	return out
}

// LabelerKind selects a post-hoc labeling technique.
type LabelerKind int

const (
	// LabelJSDivergence matches topics to articles by minimum JS divergence.
	LabelJSDivergence LabelerKind = iota
	// LabelTFIDFCosine is the paper's IR approach (IR-LDA when applied to
	// LDA topics).
	LabelTFIDFCosine
	// LabelCounting counts top-word overlap.
	LabelCounting
	// LabelPMI scores label candidates by pointwise mutual information.
	LabelPMI
)

// NewLabeler constructs a post-hoc labeler of the given kind over the
// corpus/source pair.
func NewLabeler(kind LabelerKind, c *Corpus, k *KnowledgeSource) (labeling.Labeler, error) {
	switch kind {
	case LabelJSDivergence:
		return labeling.NewJSLabeler(k.s, c.c.VocabSize(), knowledge.DefaultEpsilon), nil
	case LabelTFIDFCosine:
		return labeling.NewIRLabeler(k.s, c.c.VocabSize(), 10), nil
	case LabelCounting:
		return labeling.NewCountLabeler(k.s, 10), nil
	case LabelPMI:
		return labeling.NewPMILabeler(k.s, c.c, 10), nil
	default:
		return nil, fmt.Errorf("sourcelda: unknown labeler kind %d", kind)
	}
}
