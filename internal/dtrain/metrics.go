package dtrain

import (
	"io"
	"sync"
	"time"

	"sourcelda/internal/obs"
)

// EpochEvent is one line of the coordinator's telemetry JSONL: everything
// known about a sync epoch at the moment its merge completed.
type EpochEvent struct {
	// Time is when the epoch's merge finished.
	Time time.Time `json:"time"`
	// Epoch is the 1-based sync boundary index; Epochs the configured total.
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs"`
	// Workers is the shard count; Staleness the local sweeps per epoch.
	Workers   int `json:"workers"`
	Staleness int `json:"staleness"`
	// EpochSeconds is wall time from broadcast to merged.
	EpochSeconds float64 `json:"epoch_seconds"`
	// MergeBytes is the total delta payload merged this epoch.
	MergeBytes int64 `json:"merge_bytes"`
	// WorkerLagSeconds is the spread between the first and last shard delta
	// arriving — the straggler gap.
	WorkerLagSeconds float64 `json:"worker_lag_seconds"`
	// TokensPerSec is the epoch's aggregate sampling throughput (corpus
	// tokens × staleness / epoch seconds).
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	// Reassigned counts shards handed to replacement workers during this
	// epoch.
	Reassigned int `json:"reassigned,omitempty"`
}

// Metrics aggregates coordinator telemetry into the two standard surfaces:
// an EpochEvent JSONL log and a Prometheus body (WritePrometheus) exposing
// srcldactl_* series. A nil *Metrics is valid and records nothing.
type Metrics struct {
	mu             sync.Mutex
	log            obs.EventLog
	last           EpochEvent
	epochs         uint64
	mergeBytes     int64
	framesRejected uint64
	workerFailures uint64

	epochLatency *obs.Histogram
}

// NewMetrics builds a Metrics writing JSONL epoch events to out (nil for
// metrics-only).
func NewMetrics(out io.Writer) *Metrics {
	return &Metrics{log: obs.EventLog{Out: out}, epochLatency: obs.NewHistogram(obs.DefaultLatencyBuckets())}
}

// RecordEpoch appends one epoch event to the JSONL log and updates the
// Prometheus gauges.
func (m *Metrics) RecordEpoch(ev EpochEvent) {
	if m == nil {
		return
	}
	m.epochLatency.Observe(ev.EpochSeconds)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.last = ev
	m.epochs++
	m.mergeBytes += ev.MergeBytes
	m.log.Append(ev)
}

// EpochsMerged returns how many sync epochs this coordinator has merged.
func (m *Metrics) EpochsMerged() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochs
}

// NoteFrameRejected counts a wire frame refused for corruption (bad magic,
// checksum mismatch, length lies, unknown kind).
func (m *Metrics) NoteFrameRejected() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.framesRejected++
	m.mu.Unlock()
}

// FramesRejected returns how many corrupt frames were refused.
func (m *Metrics) FramesRejected() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.framesRejected
}

// NoteWorkerFailure counts a worker lost to any cause — connection error,
// deadline, corrupt frame — each of which triggers shard reassignment.
func (m *Metrics) NoteWorkerFailure() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.workerFailures++
	m.mu.Unlock()
}

// WorkerFailures returns how many workers were lost and replaced.
func (m *Metrics) WorkerFailures() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workerFailures
}

// Err returns the first JSONL write error, if any; telemetry never aborts
// training.
func (m *Metrics) Err() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Err()
}

// WritePrometheus renders the coordinator's state as srcldactl_* series.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	last, epochs, mergeBytes := m.last, m.epochs, m.mergeBytes
	rejected, failures := m.framesRejected, m.workerFailures
	m.mu.Unlock()

	x := obs.NewExposition(w)
	x.Family("srcldactl_epoch", "gauge", "Last merged sync epoch (1-based).")
	x.Int(int64(last.Epoch))
	x.Family("srcldactl_epochs_total", "counter", "Sync epochs merged by this coordinator.")
	x.Int(int64(epochs))
	x.Family("srcldactl_workers", "gauge", "Configured worker (shard) count.")
	x.Int(int64(last.Workers))
	x.Family("srcldactl_staleness", "gauge", "Local sweeps between sync boundaries.")
	x.Int(int64(last.Staleness))
	x.Family("srcldactl_merge_bytes_total", "counter", "Delta payload bytes merged.")
	x.Int(mergeBytes)
	x.Family("srcldactl_worker_lag_seconds", "gauge", "Straggler gap of the last epoch (first to last delta).")
	x.Float(last.WorkerLagSeconds)
	x.Family("srcldactl_tokens_per_sec", "gauge", "Aggregate sampling throughput of the last epoch.")
	x.Float(last.TokensPerSec)
	x.Family("srcldactl_frames_rejected_total", "counter", "Corrupt wire frames refused.")
	x.Int(int64(rejected))
	x.Family("srcldactl_worker_failures_total", "counter", "Workers lost and replaced.")
	x.Int(int64(failures))
	x.Family("srcldactl_epoch_seconds", "histogram", "Wall time of a sync epoch, broadcast to merged.")
	x.Histogram(m.epochLatency.Snapshot())
	obs.WriteRuntimeMetrics(w, "srcldactl", -1)
}
