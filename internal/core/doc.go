// Package core implements Source-LDA, the paper's primary contribution: a
// semi-supervised extension of Latent Dirichlet Allocation whose topic-word
// Dirichlet priors are set from labeled knowledge-source articles
// (PAPER.md Definitions 1–3), so that inferred topics stay consistent with
// prior knowledge, carry labels, and may still deviate from — or be absent
// from — the knowledge source.
//
// # Model stages (PAPER.md §III)
//
//   - Bijective mapping (§III-A): every topic is a knowledge-source topic,
//     φ_k ~ Dir(δ_k) with δ the source hyperparameters (NumFreeTopics = 0,
//     LambdaFixed).
//   - Known mixture (§III-B): K free topics with symmetric β priors mixed
//     with source topics (NumFreeTopics = K, LambdaFixed).
//   - Full Source-LDA (§III-C): per-topic λ ~ N(µ, σ) governs divergence
//     from the source distribution via δ^g(λ); λ is integrated out
//     numerically inside the collapsed Gibbs sampler (LambdaIntegrated),
//     with the g linearization of §III-C2 and superset topic reduction of
//     §III-C3.
//
// # Engine layout
//
// The chain's sufficient statistics live in flat int32 slabs (countStore,
// counts.go) laid out topic-fastest, and the knowledge source's powered
// prior values δ^{e_p} in a CSR-style quadrature store (deltaStore,
// deltastore.go). The per-token collapsed conditional (Eq. 2/3) is
// evaluated by gibbsView (sweep.go) with cached reciprocal denominators, so
// the hot loop does direct slice indexing — no maps, closures, or division.
//
// There are two per-token kernels and each view owns its draw: the serial
// collapsed Gibbs scan (Algorithm 1; SamplerSerial) and the SparseLDA-style
// bucket-decomposed kernel (SamplerSparse, sparse.go), whose per-token cost
// is proportional to the token's topic sparsity instead of the topic count.
// Either runs in the exact sequential sweep mode or in the document-sharded
// data-parallel sweep mode (SweepShardedDocs, AD-LDA style), which trades
// within-sweep count freshness for corpus-scale throughput across cores and
// is the only place a sweep runs goroutines (Options.Threads bounds
// them). The paper's within-token parallel kernels (Algorithms 2 and 3,
// §III-C4) lose to the serial scan at every measured topic count and live
// with the Fig. 8(f) reproduction in internal/experiments; their SamplerKind
// values are reserved and refused by name (ErrRetiredSampler).
//
// # Determinism contract
//
// Every random draw flows through a deterministic internal/rng stream:
// stream rng.NewStream(seed, 0) for the sequential mode (and prune-time
// resampling), stream i for document shard i of the sharded mode. Shard i
// always owns the same document range and the same stream, so a fitted
// chain is a pure function of (corpus, source, chain options, seed) —
// never of thread count or scheduling. Options.chainDigest fingerprints
// exactly the options that participate in this function.
//
// # Checkpoint and resume
//
// Checkpoint (checkpoint.go) snapshots the chain's mutable state at a sweep
// boundary — per-token assignments, λ posterior weights, pruning flags,
// sweep counter, traces, and each RNG stream's position (rng.Pos) — and
// Restore rebuilds a live Model from it, fast-forwarding fresh streams with
// rng.Skip. Because the count slabs are a pure function of the assignments
// and the cached denominators are a pure function of the counts and λ
// weights, a restored chain continues bit-for-bit identically to an
// uninterrupted run, in both sweep modes. RunWithHook exposes the sweep
// boundary to callers (progress reporting, periodic checkpointing, early
// stopping via ErrStopTraining); serialization of checkpoints lives in
// internal/persist.
package core
