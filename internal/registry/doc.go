// Package registry is the multi-model serving subsystem behind cmd/srcldad:
// one process serving many named, versioned model bundles concurrently,
// with zero-downtime hot swaps.
//
// Source-LDA models are built from evolving knowledge sources (the paper's
// premise is that labeled articles — e.g. Wikipedia pages — encode topic
// priors, §III), so the natural serving lifecycle is retrain-and-swap: a
// fresh bundle for the same logical model name replaces the previous one
// while requests are in flight. The registry makes that safe:
//
//   - A request's documents are scored on the goroutine that received it,
//     admitted whole-or-not against the model's own in-flight document bound
//     (docs/OPERATIONS.md), so one hot model cannot consume another's
//     admission budget.
//   - The active version of a model is an atomically-swapped pointer to a
//     reference-counted inference session (sourcelda.Inferrer backed by
//     infer.Session). A swap installs the new version for all subsequent
//     requests and closes the old session's owner reference; its worker pool
//     is freed only after every in-flight request releases its pin, so no
//     request ever observes a torn-down model. The request path never
//     blocks on a swap — copy-on-swap, drain-on-refcount.
//   - Responses are unchanged by swaps in the only sense that matters:
//     a mixture is a pure function of (model, seed, text), so every document
//     scored against version B is bit-for-bit what a fresh B-only daemon
//     would return.
//
// Models enter the registry three ways: preloaded at daemon start
// (-bundle), pushed over the admin API (PUT /v1/models/{name} with the
// bundle as the request body), or dropped into a watched directory
// (-models-dir; Watcher polls for new, changed and removed *.bundle
// files). Per-model serving metrics — request counts by status, shed 503s,
// in-flight documents, p50/p99 latency, open sessions, swap counts —
// are exported in Prometheus text format via Registry.WritePrometheus
// (GET /metrics on the daemon).
//
// Server wraps a Registry with the full HTTP surface (inference, topics,
// admin, metrics, health); see docs/API.md for the endpoint reference and
// docs/OPERATIONS.md for rollout runbooks.
package registry
