package obs

import (
	"io"
	"sync"
	"time"
)

// SweepEvent is one line of the training telemetry log: everything known
// about a single Gibbs sweep at the moment it finished. Fields with no
// value for a given sweep are omitted from the JSON rather than emitted as
// zeros (a likelihood of 0 is a real — if implausible — likelihood).
type SweepEvent struct {
	// Time is when the sweep finished (RFC 3339, wall clock).
	Time time.Time `json:"time"`
	// Sweep is the 1-based sweep index within the chain.
	Sweep int `json:"sweep"`
	// TotalSweeps is the configured chain length.
	TotalSweeps int `json:"total_sweeps"`
	// LogLikelihood is the model log-likelihood after this sweep, when
	// likelihood tracing is enabled.
	LogLikelihood *float64 `json:"log_likelihood,omitempty"`
	// TokensPerSec is the sweep's sampling throughput.
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	// SweepSeconds is the sweep's wall time.
	SweepSeconds float64 `json:"sweep_seconds"`
	// CheckpointSeconds is the checkpoint write latency, when this sweep
	// wrote one.
	CheckpointSeconds *float64 `json:"checkpoint_seconds,omitempty"`
	// CheckpointPath is where that checkpoint landed.
	CheckpointPath string `json:"checkpoint_path,omitempty"`
	// Kernel is the sampler kernel name (e.g. "auto", "sparse", "dense").
	Kernel string `json:"kernel,omitempty"`
}

// TrainingRecorder turns per-sweep training progress into two surfaces: a
// JSONL event log (one SweepEvent per line) and a live Prometheus body
// (WritePrometheus, served through MetricsHandler) exposing the latest
// sweep's gauges, so a multi-hour chain is monitorable in flight without
// parsing its log. A nil recorder is valid and records nothing.
type TrainingRecorder struct {
	mu     sync.Mutex
	log    EventLog // JSONL sink; Out may be nil (metrics only)
	last   SweepEvent
	sweeps uint64
	ckpts  uint64
}

// NewTrainingRecorder builds a recorder writing JSONL events to out. out
// may be nil when only the Prometheus surface is wanted.
func NewTrainingRecorder(out io.Writer) *TrainingRecorder {
	return &TrainingRecorder{log: EventLog{Out: out}}
}

// Record appends one sweep event to the JSONL log and updates the gauges
// WritePrometheus renders. Safe for concurrent use; nil-safe.
func (r *TrainingRecorder) Record(ev SweepEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last = ev
	r.sweeps++
	if ev.CheckpointSeconds != nil {
		r.ckpts++
	}
	r.log.Append(ev)
}

// Err returns the first JSONL write error, if any — telemetry must never
// abort training, so failures are deferred here for the caller to report
// at exit.
func (r *TrainingRecorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Err()
}

// WritePrometheus renders the latest sweep's state as srclda_* gauges plus
// process runtime gauges.
func (r *TrainingRecorder) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	last, sweeps, ckpts := r.last, r.sweeps, r.ckpts
	r.mu.Unlock()

	x := NewExposition(w)
	x.Family("srclda_sweep", "gauge", "Last completed sweep index (1-based).")
	x.Int(int64(last.Sweep))
	x.Family("srclda_total_sweeps", "gauge", "Configured chain length.")
	x.Int(int64(last.TotalSweeps))
	x.Family("srclda_sweeps_total", "counter", "Sweeps completed by this process.")
	x.Int(int64(sweeps))
	if last.LogLikelihood != nil {
		x.Family("srclda_log_likelihood", "gauge", "Model log-likelihood after the last sweep.")
		x.Float(*last.LogLikelihood)
	}
	x.Family("srclda_tokens_per_sec", "gauge", "Sampling throughput of the last sweep.")
	x.Float(last.TokensPerSec)
	x.Family("srclda_sweep_seconds", "gauge", "Wall time of the last sweep.")
	x.Float(last.SweepSeconds)
	x.Family("srclda_checkpoints_total", "counter", "Checkpoints written by this process.")
	x.Int(int64(ckpts))
	if last.CheckpointSeconds != nil {
		x.Family("srclda_checkpoint_seconds", "gauge", "Write latency of the last checkpoint.")
		x.Float(*last.CheckpointSeconds)
	}
	WriteRuntimeMetrics(w, "srclda", -1)
}
