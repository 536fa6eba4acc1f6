// Package gateway is the horizontal serving tier in front of srcldad
// replicas: one stateless process that makes N single-box model servers
// look like a single, larger, fault-tolerant one.
//
// Routing is consistent hashing with bounded loads: a model name hashes to
// a deterministic replica preference order (so each replica's OS page cache
// and per-model fold-in scratch stay hot for the models it owns), and a
// bounded in-flight cap spills a hot model to its ring neighbors instead of
// pinning one replica. Availability is decided by two independent signals — active
// /readyz probes (which catch hangs) and passive consecutive-failure
// ejection with exponential backoff (which catches fast failures like
// connection refusals and 5xx storms). Failures are retried on the next
// replica in preference order under a retry budget, optionally hedged on
// latency; per-tenant token buckets shed abusive load before it costs an
// upstream try.
//
// The package is exercised end to end by the fault-injection suite in
// gateway_test.go against in-process replica clusters from the companion
// gatewaytest package. Command srcldagw is the thin CLI wrapper.
package gateway
