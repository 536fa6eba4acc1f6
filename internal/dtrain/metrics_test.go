package dtrain

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"sourcelda/internal/obs/obstest"
)

// recordedRun feeds a Metrics the fixed epochs of a three-worker run and
// returns it with the JSONL it wrote.
func recordedRun() (*Metrics, *bytes.Buffer) {
	var events bytes.Buffer
	m := NewMetrics(&events)
	for i, secs := range []float64{0.75, 0.0004, 0.02, 3.5, 12} {
		m.RecordEpoch(EpochEvent{
			Time:             time.Date(2026, 8, 7, 0, 0, i, 0, time.UTC),
			Epoch:            i + 1,
			Epochs:           5,
			Workers:          3,
			Staleness:        2,
			EpochSeconds:     secs,
			MergeBytes:       int64(1_000_000 + i),
			WorkerLagSeconds: secs / 4,
			TokensPerSec:     250000.5 / secs,
			Reassigned:       i % 2,
		})
	}
	m.NoteFrameRejected()
	m.NoteWorkerFailure()
	m.NoteWorkerFailure()
	return m, &events
}

// TestGoldenCoordinatorScrape pins srcldactl's /metrics body and its
// telemetry JSONL byte for byte (testdata/, recorded at the parent of the
// obs.Exposition refactor).
func TestGoldenCoordinatorScrape(t *testing.T) {
	m, events := recordedRun()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	var scrape bytes.Buffer
	m.WritePrometheus(&scrape)
	text := scrape.String()
	obstest.CheckExposition(t, text)
	obstest.CheckGolden(t, filepath.Join("testdata", "coordinator.metrics"), obstest.MaskVolatile(text))
	obstest.CheckGolden(t, filepath.Join("testdata", "epochs.jsonl"), events.String())
}

// TestMetricsDocumented diffs the families srcldactl's coordinator renders
// against the table in docs/API.md.
func TestMetricsDocumented(t *testing.T) {
	m, _ := recordedRun()
	var scrape bytes.Buffer
	m.WritePrometheus(&scrape)
	obstest.CheckDocumented(t, filepath.Join("..", "..", "docs", "API.md"), "### `srcldactl` metrics", scrape.String())
}
