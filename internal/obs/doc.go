// Package obs is the repository's shared observability layer: structured
// logging, request identity and span tracing, fixed-bucket Prometheus
// histograms, training telemetry, and runtime/pprof debug surfaces. It is
// dependency-free (standard library only) so every layer — the training
// CLI, the serving registry, the daemons — can use one vocabulary for
// events and metrics without pulling a metrics SDK into the module.
//
// The pieces:
//
//   - NewLogger builds a log/slog logger from the shared -log-format /
//     -log-level flag convention (text or JSON handler, leveled). Every
//     binary logs keyed events through it; there are no printf log lines
//     left in the serving path.
//   - NewRequestID / ValidRequestID and Trace implement request tracing:
//     an X-Request-Id is generated (or accepted from the client), carried
//     through the request lifecycle in the context, and accumulates
//     per-stage durations (inference → render) that the access log and the
//     per-stage histograms report.
//   - Histogram is a lock-free fixed-bucket histogram — the replacement
//     for sampled quantile windows, which silently degrade under sustained
//     load.
//   - Exposition is the one writer of the Prometheus text format: every
//     /metrics body in the repository (srcldad, srcldagw, srcldactl,
//     srclda, /debug/runtime) is a list of Family declarations followed by
//     Int, Float and Histogram samples, served through MetricsHandler. It
//     owns label escaping and the histogram series layout; it is not a
//     metric registry — counters stay with the code that collects them.
//   - TrainingRecorder emits one structured JSONL event per Gibbs sweep
//     (log-likelihood, tokens/sec, sweep wall time, checkpoint latency)
//     through EventLog — the sink dtrain.Metrics shares — and renders the
//     latest sweep as live Prometheus gauges for long training chains.
//   - ServeDebug starts the opt-in -debug-addr listener every command
//     shares: NewDebugMux's net/http/pprof handlers plus the
//     WriteRuntimeMetrics gauges (goroutines, heap, mapped-bundle bytes).
package obs
