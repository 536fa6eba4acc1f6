package dtrain

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
// an EpochEvent JSONL log and a Prometheus handler exposing srcldactl_*
// series. A nil *Metrics is valid and records nothing.
type Metrics struct {
	mu             sync.Mutex
	out            io.Writer
	last           EpochEvent
	epochs         uint64
	mergeBytes     int64
	framesRejected uint64
	workerFailures uint64
	err            error

	epochLatency *obs.Histogram
}

// NewMetrics builds a Metrics writing JSONL epoch events to out (nil for
// metrics-only).
func NewMetrics(out io.Writer) *Metrics {
	return &Metrics{out: out, epochLatency: obs.NewHistogram(obs.DefaultLatencyBuckets())}
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
	if m.out == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil {
		b = append(b, '\n')
		_, err = m.out.Write(b)
	}
	if err != nil && m.err == nil {
		m.err = err
	}
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
	return m.err
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

	fmt.Fprintf(w, "# HELP srcldactl_epoch Last merged sync epoch (1-based).\n")
	fmt.Fprintf(w, "# TYPE srcldactl_epoch gauge\n")
	fmt.Fprintf(w, "srcldactl_epoch %d\n", last.Epoch)
	fmt.Fprintf(w, "# HELP srcldactl_epochs_total Sync epochs merged by this coordinator.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_epochs_total counter\n")
	fmt.Fprintf(w, "srcldactl_epochs_total %d\n", epochs)
	fmt.Fprintf(w, "# HELP srcldactl_workers Configured worker (shard) count.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_workers gauge\n")
	fmt.Fprintf(w, "srcldactl_workers %d\n", last.Workers)
	fmt.Fprintf(w, "# HELP srcldactl_staleness Local sweeps between sync boundaries.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_staleness gauge\n")
	fmt.Fprintf(w, "srcldactl_staleness %d\n", last.Staleness)
	fmt.Fprintf(w, "# HELP srcldactl_merge_bytes_total Delta payload bytes merged.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_merge_bytes_total counter\n")
	fmt.Fprintf(w, "srcldactl_merge_bytes_total %d\n", mergeBytes)
	fmt.Fprintf(w, "# HELP srcldactl_worker_lag_seconds Straggler gap of the last epoch (first to last delta).\n")
	fmt.Fprintf(w, "# TYPE srcldactl_worker_lag_seconds gauge\n")
	fmt.Fprintf(w, "srcldactl_worker_lag_seconds %g\n", last.WorkerLagSeconds)
	fmt.Fprintf(w, "# HELP srcldactl_tokens_per_sec Aggregate sampling throughput of the last epoch.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_tokens_per_sec gauge\n")
	fmt.Fprintf(w, "srcldactl_tokens_per_sec %g\n", last.TokensPerSec)
	fmt.Fprintf(w, "# HELP srcldactl_frames_rejected_total Corrupt wire frames refused.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_frames_rejected_total counter\n")
	fmt.Fprintf(w, "srcldactl_frames_rejected_total %d\n", rejected)
	fmt.Fprintf(w, "# HELP srcldactl_worker_failures_total Workers lost and replaced.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_worker_failures_total counter\n")
	fmt.Fprintf(w, "srcldactl_worker_failures_total %d\n", failures)
	fmt.Fprintf(w, "# HELP srcldactl_epoch_seconds Wall time of a sync epoch, broadcast to merged.\n")
	fmt.Fprintf(w, "# TYPE srcldactl_epoch_seconds histogram\n")
	m.epochLatency.Snapshot().WritePrometheus(w, "srcldactl_epoch_seconds", "")
	obs.WriteRuntimeMetrics(w, "srcldactl", -1)
}

// Handler serves WritePrometheus over HTTP.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
}
