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
// A token's weight P(w_i | t)·(n_{d,t}+α) splits into two buckets, in the
// manner of SparseLDA (Yao, Mimno & McCallum, KDD'09):
//
//   - the document bucket Σ_t P(w_i | t)·n_{d,t}, non-zero only on the
//     document's live topics. The engine keeps those topics in a list, with
//     each topic's position in it, so a move updates the list in O(1); a
//     draw walks the K_d live topics.
//   - the smoothing bucket α·Σ_t P(w_i | t), which depends on the word
//     alone. The init pass, which reads each token's full row for its
//     prior-informed initial draw, also stores the row's total and its sums
//     over fixed blocks of 32 topics. A smoothing draw walks the block sums
//     to one block and then that block's topics: about 2√T steps at
//     T ≈ 1024 instead of a pass over T.
//
// One uniform u per draw: u·(doc + smooth) falls in the document bucket's
// live topics first, in list order, and otherwise, divided by α, in the
// smoothing bucket's topics in topic order. A fold-in therefore costs one
// N·T init pass plus N·(K_d + ~2√T) per sweep. A non-positive or
// non-finite total (a row holding +Inf or NaN) fills the dense weights and
// hands them to rng.Categorical for its restricted-support fallback, which
// also consumes exactly one variate. θ is accumulated once per sample
// sweep, from the counts, as (n_{d,t}+α)/(N+Tα).
//
// The draw samples the dense kernel's distribution with different bits.
// TestDrawIntervalsOracle checks that the u → topic map splits [0, 1) into
// intervals of the dense probabilities' lengths at block-boundary T;
// TestFoldInOracle checks the sampled θ against the exactly enumerated
// posterior of toy models (one spanning three blocks) and that mutations of
// either kernel fail it; the root TestFoldInReference compares the θ error
// against a long-chain reference with the dense kernel's. The θ digests of
// TestGoldenThetaDigest and the registry's recorded responses pin this
// draw's bits; TestInfFallbackMatchesCategorical pins the degenerate path
// to rng.Categorical draw for draw.
//
// Per-call scratch (the known-token list, counts, the live list,
// assignments, the per-token row totals and block sums, the bucket weights
// and the document's generator) comes from a sync.Pool on the engine, so a
// call allocates only the Document and its Theta.
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
