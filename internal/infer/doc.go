// Package infer implements online (fold-in) inference for unseen documents
// against a frozen fitted Source-LDA model: the topic-word statistics are
// locked — exposed through core.Frozen as precomputed per-word conditional
// rows derived from the training count slabs and the CSR δ^λ quadrature
// store — and only the per-document topic counts n_{d,t} are Gibbs-sampled,
//
//	P(z_i = t | z_-i, w) ∝ P(w_i | t) · (n_{d,t}^{-i} + α),
//
// the standard fold-in estimator for scoring a stream of new documents with
// a trained topic model (as Bio-LDA and the thesaurus-LDA line do with
// their knowledge-primed models). Because Source-LDA topics (PAPER.md §III)
// arrive labeled, the resulting mixtures are directly usable as document
// tags; cmd/srcldad serves exactly this path over HTTP.
//
// # The draw
//
// Each token's draw is one pass over T, the draw core's dense kernel makes:
// the engine keeps n_{d,t}+α as a float64 vector (updated at the two
// entries a move changes), accumulates the running sum of
// P(w_i | t)·(n_{d,t}+α) into a T-length cumulative vector, and
// binary-searches it for u·total with mathx.SearchCumulative. The products
// are summed in topic order, as rng.Categorical sums its weights, and the
// search selects the index its linear scan would, so the result is
// bit-identical to a fill-then-rng.Categorical kernel; a non-positive or
// non-finite total hands the weights to rng.Categorical for its
// restricted-support fallback. Every draw consumes exactly one uniform.
// TestGoldenThetaDigest pins the bits and TestFoldInOracle checks the
// sampled θ against the exactly enumerated posterior of a toy model.
//
// Per-call scratch (the known-token list, counts, assignments, the
// cumulative vector and the document's generator) comes from a sync.Pool
// on the engine, so a call allocates only the Document and its Theta.
//
// # Determinism contract
//
// Each document draws from rng.NewStream(seed, rng.TokenStream(tokens)) — a
// stream keyed by the document's content, not its batch position — so Infer
// and InferBatch are pure functions of (model, options, document). A batch
// of N documents is bit-for-bit identical to N independent single-document
// calls, no matter how a server interleaves concurrent requests or how
// many workers execute them. This is the same per-stream determinism the
// training engine relies on (see internal/core and internal/rng), applied
// per document instead of per shard.
//
// # Invariants
//
// The Engine never mutates the Frozen view: any number of goroutines may
// score documents concurrently over one model. Out-of-vocabulary tokens
// carry no signal and are skipped (callers receive known/unknown counts);
// a document with no known tokens yields a nil mixture rather than a
// uniform guess.
package infer
