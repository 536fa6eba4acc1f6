package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"

	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/smoothing"
)

// LambdaMode selects how the divergence exponent λ is treated.
type LambdaMode int

const (
	// LambdaFixed uses a single fixed exponent (Options.Lambda) for every
	// source topic: δ^λ. λ = 1 reproduces the bijective/known-mixture
	// models exactly as written in §III-A/B.
	LambdaFixed LambdaMode = iota
	// LambdaIntegrated places N(µ, σ) over λ and integrates it out of the
	// collapsed Gibbs equations by numeric quadrature (§III-C2, Eq. 3–4).
	LambdaIntegrated
)

// String implements fmt.Stringer.
func (m LambdaMode) String() string {
	switch m {
	case LambdaFixed:
		return "fixed"
	case LambdaIntegrated:
		return "integrated"
	default:
		return fmt.Sprintf("LambdaMode(%d)", int(m))
	}
}

// SamplerKind selects the topic-sampling kernel. The value is hashed into the
// chain digest, so the constants are pinned: renumbering one would orphan
// every checkpoint and chain archive written under it.
type SamplerKind int

const (
	// SamplerSerial is Algorithm 1's sequential inner loop: evaluate the
	// conditional for every topic, scan, binary-search.
	SamplerSerial SamplerKind = 0
	// SamplerSparse is the SparseLDA-style bucket-decomposed kernel (Yao,
	// Mimno & McCallum, KDD 2009, adapted to Source-LDA's quadrature
	// topics): the per-token conditional is split into cached
	// smoothing/default-δ totals plus sparse document and word buckets, so
	// a draw costs O(token sparsity) instead of O(K + S·P). It samples the
	// exact same conditional as the dense kernel — only the arithmetic
	// path differs, so it draws a different (equally valid) chain for the
	// same seed. Composes with both sweep modes.
	SamplerSparse SamplerKind = 3
)

// retiredSamplers names the values the paper's within-token parallel kernels
// (§III-C4 Algorithm 3 and Algorithm 2) held until they moved to the Fig. 8(f)
// experiment. The values stay reserved so a request for one — or a checkpoint
// whose digest hashes one — is refused by name instead of sampled serially
// under a digest no run describes.
var retiredSamplers = map[SamplerKind]string{1: "simple-parallel", 2: "prefix-sums"}

// ErrRetiredSampler reports a request for a kernel in retiredSamplers. Both
// lost to the serial scan at every measured topic count, and nothing this
// build can run reproduces their digests.
var ErrRetiredSampler = errors.New("kernel retired to the Fig. 8(f) experiment (internal/experiments); checkpoints and chain archives written under it cannot be resumed by this build — use serial or sparse, and document shards for parallelism")

func retiredSamplerError(name string) error {
	return fmt.Errorf("core: sampler %q: %w", name, ErrRetiredSampler)
}

// String implements fmt.Stringer.
func (k SamplerKind) String() string {
	switch k {
	case SamplerSerial:
		return "serial"
	case SamplerSparse:
		return "sparse"
	default:
		return fmt.Sprintf("SamplerKind(%d)", int(k))
	}
}

// ParseSampler maps a kernel name (the SamplerKind.String() values) to its
// constant. The retired kernels' names fail with ErrRetiredSampler.
func ParseSampler(name string) (SamplerKind, error) {
	for _, k := range []SamplerKind{SamplerSerial, SamplerSparse} {
		if name == k.String() {
			return k, nil
		}
	}
	for _, retired := range retiredSamplers {
		if name == retired {
			return 0, retiredSamplerError(name)
		}
	}
	return 0, fmt.Errorf("core: unknown sampler kernel %q (want serial or sparse)", name)
}

// SweepMode selects how a Gibbs sweep traverses the corpus.
type SweepMode int

const (
	// SweepSequential resamples tokens one at a time against the live
	// global counts — exact collapsed Gibbs (Algorithm 1), on the calling
	// goroutine.
	SweepSequential SweepMode = iota
	// SweepShardedDocs partitions documents into Options.Shards contiguous
	// shards swept concurrently, each against a private copy of the
	// word-topic counts taken at the sweep barrier and reconciled
	// afterwards (AD-LDA style; Newman et al., "Distributed inference for
	// latent Dirichlet allocation"). With more than one shard the chain is
	// an approximation — counts are stale across shards within a sweep —
	// but sweeps scale across cores. With exactly one shard the chain is
	// identical to SweepSequential's. Each shard draws from its own
	// deterministic RNG stream, so
	// results depend on the shard count but never on worker scheduling.
	SweepShardedDocs
)

// String implements fmt.Stringer.
func (s SweepMode) String() string {
	switch s {
	case SweepSequential:
		return "sequential"
	case SweepShardedDocs:
		return "sharded-docs"
	default:
		return fmt.Sprintf("SweepMode(%d)", int(s))
	}
}

// Options configures a Source-LDA fit. The zero value is not valid; use the
// documented defaults.
type Options struct {
	// NumFreeTopics is K, the number of unlabeled topics with symmetric β
	// priors. 0 gives the bijective model of §III-A; the paper's full model
	// mixes K free topics with the knowledge-source superset.
	NumFreeTopics int
	// Alpha is the symmetric document-topic prior (paper default 50/T).
	Alpha float64
	// Beta is the symmetric word prior for free topics (paper default
	// 200/V).
	Beta float64
	// Epsilon is the Definition 3 smoothing mass added to source counts.
	// Default knowledge.DefaultEpsilon.
	Epsilon float64
	// LambdaMode selects fixed vs integrated λ treatment.
	LambdaMode LambdaMode
	// Lambda is the fixed exponent in [0, 1] used when LambdaMode ==
	// LambdaFixed. Set 1 for the raw-count priors of §III-A/B; 0 flattens
	// the prior entirely (every hyperparameter becomes 1). The zero value
	// therefore means a fully-relaxed prior, not "default".
	Lambda float64
	// Mu and Sigma parameterize the Gaussian prior over λ for
	// LambdaIntegrated (paper values: 0.7 and 0.3 for the mixed
	// experiments).
	Mu, Sigma float64
	// QuadraturePoints is A, the number of λ quadrature nodes used to
	// integrate λ out (Eq. 3). Default 9.
	QuadraturePoints int
	// LambdaBurnIn is the number of initial sweeps during which the λ
	// quadrature keeps its prior weights before per-topic posterior
	// reweighting engages (the early count matrices are too noisy to judge
	// conformance). Default 10.
	LambdaBurnIn int
	// FreezeLambdaWeights disables the per-topic λ posterior reweighting.
	// By default (false) the quadrature-node weights of each source topic
	// are updated every sweep to N(µ,σ)-prior × collapsed likelihood of the
	// topic's current counts — the Gibbs treatment of the per-topic latent
	// λ_t in the model's plate diagram (Fig. 1(b)), which lets conforming
	// topics keep sharp priors while deviating topics relax theirs. When
	// frozen, the static prior weights are used for every topic (the
	// literal reading of Eq. 3's integrand); the ablation benches compare
	// the two.
	FreezeLambdaWeights bool
	// UseSmoothing applies the g(λ) linearization of §III-C2 to quadrature
	// nodes (and to Lambda in fixed mode).
	UseSmoothing bool
	// SmoothingConfig configures g estimation. A zero value defaults to the
	// fast deterministic mean-field estimator with an 11-point grid.
	SmoothingConfig smoothing.Config
	// PruneDeadTopics enables §III-C3's in-inference superset reduction:
	// source topics assigned in too few documents are eliminated during
	// sampling ("during the inference we eliminate topics which are not
	// assigned to any documents") and their tokens resampled over the
	// surviving topics. Without it, dead superset topics keep soaking up
	// probability mass for shared vocabulary. Free topics are never pruned.
	PruneDeadTopics bool
	// PruneAfter is the first sweep (1-based) at which pruning may run;
	// earlier sweeps are too noisy to judge. Default 20.
	PruneAfter int
	// PruneEvery re-runs the pruning check this many sweeps after the
	// first. Default 10.
	PruneEvery int
	// PruneMinDocs is the minimum number of documents (each with at least
	// PruneMinTokens tokens in the topic) a source topic needs to survive.
	// Default 2.
	PruneMinDocs int
	// PruneMinTokens is the per-document token threshold used by the
	// document-frequency count. Default 2.
	PruneMinTokens int
	// Iterations is the number of collapsed Gibbs sweeps. Default 1000.
	Iterations int
	// Seed seeds the sampler chain.
	Seed int64
	// Sampler selects the per-token sampling kernel, in either sweep mode.
	// Default SamplerSerial.
	Sampler SamplerKind
	// Threads bounds how many document shards SweepShardedDocs sweeps at
	// once. It is a resource bound only: it never shapes the chain, and a
	// sequential sweep ignores it. Default 1.
	Threads int
	// SweepMode selects how sweeps traverse the corpus. Default
	// SweepSequential (exact collapsed Gibbs).
	SweepMode SweepMode
	// Shards is the number of document shards for SweepShardedDocs; it is
	// capped at the document count. Default Threads, so selecting the
	// sharded mode with N threads shards the corpus N ways.
	Shards int
	// TraceLikelihood records the collapsed joint log-likelihood after each
	// sweep (the Fig. 6 trace).
	TraceLikelihood bool
	// OnIteration, when non-nil, runs after each sweep with the 0-based
	// sweep index; it may inspect the model but must not mutate it.
	OnIteration func(iter int, m *Model)
}

// DefaultShardWorkers returns the default worker count for a sharded sweep
// over docs documents given a requested shard count: one worker per shard,
// capped at the document count (shards beyond it never sample) and the CPU
// count (extra workers only add scheduling overhead). A non-positive shard
// request means "as many as useful". The result depends on the machine, so
// it may only ever feed Options.Threads — which no digest hashes — never
// Options.Shards; sourcelda.CoreOptions, the one mapping every entry point
// shares, uses it that way.
func DefaultShardWorkers(shards, docs int) int {
	if shards <= 0 || shards > docs {
		shards = docs
	}
	if n := runtime.NumCPU(); shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// lambdaBurnIn returns the effective burn-in before λ posterior updates.
func (o *Options) lambdaBurnIn() int {
	if o.LambdaBurnIn > 0 {
		return o.LambdaBurnIn
	}
	return 10
}

// numStreams returns the number of deterministic RNG streams a chain over D
// documents draws from: one for the sequential mode, one per document shard
// (capped at D) for SweepShardedDocs. Options must already have defaults
// applied. Checkpoint capture and restore both size their stream-position
// vectors with this, so the two can never disagree with NewModel.
func (o *Options) numStreams(D int) int {
	if o.SweepMode != SweepShardedDocs {
		return 1
	}
	n := o.Shards
	if n > D {
		n = D
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NumStreams returns how many deterministic RNG streams a chain with these
// options over D documents draws from, after applying defaults to a copy —
// the length a Checkpoint.StreamPos vector must have. Distributed-training
// assembly uses it to build a synthetic full-corpus checkpoint from worker
// shard states.
func (o Options) NumStreams(D int) int {
	o.applyDefaults()
	return o.numStreams(D)
}

// ChainDigest returns the chain-shaping options fingerprint after applying
// defaults to a copy — the same digest checkpoints embed as
// Checkpoint.OptionsDigest. Serving bundles record it so a deployed model
// can always be traced back to the exact chain configuration that trained
// it (and so two bundles can be compared for chain compatibility without
// re-reading the training command).
func (o Options) ChainDigest() uint64 {
	o.applyDefaults()
	return o.chainDigest()
}

// chainDigest hashes every option that influences the Gibbs chain's random
// trajectory — priors, λ treatment, quadrature size, prune and burn-in
// schedules, seed, kernel and sweep mode. Checkpoints embed the digest so a
// resume under different chain options (which would silently produce a
// chain neither run describes) fails loudly instead. Resource-only knobs
// (Threads, Iterations) are deliberately excluded: they change scheduling
// and duration, never the sampled sequence. Options must already have
// defaults applied.
func (o *Options) chainDigest() uint64 {
	// Shards only shapes the chain in the sharded mode (it sets the stream
	// count and document partition); in sequential mode its defaulted value
	// tracks Threads, which must not perturb the digest.
	shards := 0
	if o.SweepMode == SweepShardedDocs {
		shards = o.Shards
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "chain-v1|%d|%v|%v|%v|%d|%v|%v|%v|%d|%d|%v|%v|%+v|%v|%d|%d|%d|%d|%d|%d|%d|%d",
		o.NumFreeTopics, o.Alpha, o.Beta, o.Epsilon, o.LambdaMode, o.Lambda, o.Mu, o.Sigma,
		o.QuadraturePoints, o.lambdaBurnIn(), o.FreezeLambdaWeights, o.UseSmoothing, o.SmoothingConfig,
		o.PruneDeadTopics, o.PruneAfter, o.PruneEvery, o.PruneMinDocs, o.PruneMinTokens,
		o.Seed, o.Sampler, o.SweepMode, shards)
	return h.Sum64()
}

func (o *Options) applyDefaults() {
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Beta == 0 {
		o.Beta = 0.01
	}
	if o.Epsilon == 0 {
		o.Epsilon = knowledge.DefaultEpsilon
	}
	if o.QuadraturePoints <= 0 {
		o.QuadraturePoints = 9
	}
	if o.PruneAfter <= 0 {
		o.PruneAfter = 20
	}
	if o.PruneEvery <= 0 {
		o.PruneEvery = 10
	}
	if o.PruneMinDocs <= 0 {
		o.PruneMinDocs = 2
	}
	if o.PruneMinTokens <= 0 {
		o.PruneMinTokens = 2
	}
	if o.Iterations <= 0 {
		o.Iterations = 1000
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Shards <= 0 {
		o.Shards = o.Threads
	}
	if o.SmoothingConfig.GridPoints == 0 && o.SmoothingConfig.Samples == 0 {
		o.SmoothingConfig = smoothing.Config{GridPoints: 11, MeanField: true, Seed: o.Seed}
	}
}

func (o *Options) validate(c *corpus.Corpus, src *knowledge.Source) error {
	if c == nil || c.NumDocs() == 0 {
		return errors.New("core: corpus is empty; it must contain at least one document")
	}
	if c.VocabSize() == 0 {
		return errors.New("core: corpus vocabulary is empty; documents must contain at least one token")
	}
	if src == nil || src.Len() == 0 {
		return errors.New("core: knowledge source is empty; it must contain at least one labeled article (use package lda for unsupervised modeling)")
	}
	if o.NumFreeTopics < 0 {
		return fmt.Errorf("core: Options.NumFreeTopics is %d; it must be >= 0", o.NumFreeTopics)
	}
	if o.Alpha <= 0 {
		return fmt.Errorf("core: Options.Alpha is %v; the document-topic prior must be > 0", o.Alpha)
	}
	if o.Beta <= 0 {
		return fmt.Errorf("core: Options.Beta is %v; the free-topic word prior must be > 0", o.Beta)
	}
	if o.Epsilon <= 0 {
		return fmt.Errorf("core: Options.Epsilon is %v; the Definition 3 smoothing mass must be > 0", o.Epsilon)
	}
	if o.LambdaMode == LambdaFixed && (o.Lambda < 0 || o.Lambda > 1) {
		return fmt.Errorf("core: Options.Lambda is %v; a fixed λ exponent must lie in [0, 1]", o.Lambda)
	}
	if o.LambdaMode == LambdaIntegrated && o.Sigma < 0 {
		return fmt.Errorf("core: Options.Sigma is %v; the λ prior standard deviation must be >= 0", o.Sigma)
	}
	switch o.Sampler {
	case SamplerSerial, SamplerSparse:
	default:
		if name, ok := retiredSamplers[o.Sampler]; ok {
			return retiredSamplerError(name)
		}
		return fmt.Errorf("core: Options.Sampler is %d; it must be SamplerSerial (%d) or SamplerSparse (%d)",
			int(o.Sampler), int(SamplerSerial), int(SamplerSparse))
	}
	if o.SweepMode != SweepSequential && o.SweepMode != SweepShardedDocs {
		return fmt.Errorf("core: Options.SweepMode is %d; it must be SweepSequential (%d) or SweepShardedDocs (%d)",
			int(o.SweepMode), int(SweepSequential), int(SweepShardedDocs))
	}
	return nil
}
