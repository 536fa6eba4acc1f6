package dtrain

import (
	"fmt"
	"hash/fnv"

	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
)

// ChainSpec is the JSON-able chain configuration the coordinator ships to
// every worker inside the assign message. It mirrors the chain-shaping
// fields of core.Options — enums as their String() names so the wire form
// is self-describing — and deliberately omits the in-inference pruning
// knobs: pruning resamples tokens of locally-dead topics, which under a
// nonzero external overlay would judge topics by other shards' counts, so
// distributed runs keep the full topic set and prune offline if desired.
//
// Seed is the run's base seed; worker shard i trains with Seed+i, which
// makes shard 0 of a 1-worker run the serial chain's seed exactly.
type ChainSpec struct {
	NumFreeTopics       int     `json:"num_free_topics"`
	Alpha               float64 `json:"alpha,omitempty"`
	Beta                float64 `json:"beta,omitempty"`
	Epsilon             float64 `json:"epsilon,omitempty"`
	LambdaMode          string  `json:"lambda_mode,omitempty"` // "fixed" | "integrated"
	Lambda              float64 `json:"lambda,omitempty"`
	Mu                  float64 `json:"mu,omitempty"`
	Sigma               float64 `json:"sigma,omitempty"`
	QuadraturePoints    int     `json:"quadrature_points,omitempty"`
	LambdaBurnIn        int     `json:"lambda_burn_in,omitempty"`
	FreezeLambdaWeights bool    `json:"freeze_lambda_weights,omitempty"`
	UseSmoothing        bool    `json:"use_smoothing,omitempty"`
	Sampler             string  `json:"sampler,omitempty"`    // "serial" | "sparse"
	SweepMode           string  `json:"sweep_mode,omitempty"` // "sequential" | "sharded-docs"
	Shards              int     `json:"shards,omitempty"`     // in-worker document shards (SweepShardedDocs)
	Threads             int     `json:"threads,omitempty"`
	Seed                int64   `json:"seed"`
}

// ParseSampler maps a sampler kernel name (the SamplerKind.String() values;
// "" means serial) to its core constant. A spec naming one of the retired
// within-token kernels fails with core.ErrRetiredSampler.
func ParseSampler(name string) (core.SamplerKind, error) {
	if name == "" {
		return core.SamplerSerial, nil
	}
	kind, err := core.ParseSampler(name)
	if err != nil {
		return 0, fmt.Errorf("dtrain: chain spec: %w", err)
	}
	return kind, nil
}

// ParseSweepMode maps a sweep mode name ("" means sequential) to its core
// constant.
func ParseSweepMode(name string) (core.SweepMode, error) {
	switch name {
	case "", core.SweepSequential.String():
		return core.SweepSequential, nil
	case core.SweepShardedDocs.String():
		return core.SweepShardedDocs, nil
	default:
		return 0, fmt.Errorf("dtrain: unknown sweep mode %q (sequential, sharded-docs)", name)
	}
}

// Options converts the spec to core.Options with the given chain seed.
// Iterations is left at its default: dtrain drives sweep counts explicitly
// through the epoch schedule, and core excludes Iterations from the chain
// digest for exactly this reason.
func (s ChainSpec) Options(seed int64) (core.Options, error) {
	lm := core.LambdaIntegrated
	switch s.LambdaMode {
	case "", core.LambdaIntegrated.String():
	case core.LambdaFixed.String():
		lm = core.LambdaFixed
	default:
		return core.Options{}, fmt.Errorf("dtrain: unknown lambda mode %q (fixed, integrated)", s.LambdaMode)
	}
	sampler, err := ParseSampler(s.Sampler)
	if err != nil {
		return core.Options{}, err
	}
	mode, err := ParseSweepMode(s.SweepMode)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		NumFreeTopics:       s.NumFreeTopics,
		Alpha:               s.Alpha,
		Beta:                s.Beta,
		Epsilon:             s.Epsilon,
		LambdaMode:          lm,
		Lambda:              s.Lambda,
		Mu:                  s.Mu,
		Sigma:               s.Sigma,
		QuadraturePoints:    s.QuadraturePoints,
		LambdaBurnIn:        s.LambdaBurnIn,
		FreezeLambdaWeights: s.FreezeLambdaWeights,
		UseSmoothing:        s.UseSmoothing,
		Sampler:             sampler,
		SweepMode:           mode,
		Shards:              s.Shards,
		Threads:             s.Threads,
		Seed:                seed,
	}, nil
}

// ShardRange returns document shard i's contiguous range [lo, hi) of an
// n-way partition over D documents — the same n-balanced split core uses
// for in-process shards, so partition boundaries are a pure function of
// (D, n, i).
func ShardRange(D, n, i int) (lo, hi int) {
	return i * D / n, (i + 1) * D / n
}

// CorpusDigest fingerprints a corpus — dimensions, document lengths and
// every word id — so coordinator and workers can verify they loaded the
// same data before training instead of diverging silently. FNV-1a, stable
// across runs and platforms.
func CorpusDigest(c *corpus.Corpus) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeU64(uint64(c.NumDocs()))
	writeU64(uint64(c.VocabSize()))
	for _, doc := range c.Docs {
		writeU64(uint64(len(doc.Words)))
		for _, w := range doc.Words {
			writeU64(uint64(w))
		}
	}
	return h.Sum64()
}
