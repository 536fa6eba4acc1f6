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
