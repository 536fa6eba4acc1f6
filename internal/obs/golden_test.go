package obs

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"sourcelda/internal/obs/obstest"
)

// TestGoldenTrainerScrape pins srclda's -metrics-addr body and its
// -telemetry-log JSONL byte for byte (testdata/, recorded at the parent of
// the Exposition refactor), once mid-chain with no likelihood or checkpoint
// yet — their families are absent, not zero — and once after a sweep that
// carried both.
func TestGoldenTrainerScrape(t *testing.T) {
	var events bytes.Buffer
	r := NewTrainingRecorder(&events)
	record := func(sweep int, ll, ck *float64) {
		ev := SweepEvent{
			Time:              time.Date(2026, 8, 7, 0, 0, sweep, 0, time.UTC),
			Sweep:             sweep,
			TotalSweeps:       200,
			LogLikelihood:     ll,
			TokensPerSec:      1e6 / float64(sweep),
			SweepSeconds:      0.0625 * float64(sweep),
			CheckpointSeconds: ck,
			Kernel:            "sparse",
		}
		if ck != nil {
			ev.CheckpointPath = "/ckpt/sweep.ckpt"
		}
		r.Record(ev)
	}
	scrape := func() string {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		obstest.CheckExposition(t, buf.String())
		return obstest.MaskVolatile(buf.String())
	}
	record(1, nil, nil)
	record(2, nil, nil)
	obstest.CheckGolden(t, filepath.Join("testdata", "trainer_early.metrics"), scrape())
	ll, ck := -98765.4321, 1e-7
	record(3, &ll, &ck)
	obstest.CheckGolden(t, filepath.Join("testdata", "trainer.metrics"), scrape())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	obstest.CheckGolden(t, filepath.Join("testdata", "sweeps.jsonl"), events.String())
}

// TestMetricsDocumented diffs the families srclda renders after a sweep that
// carried a likelihood and a checkpoint — the two optional families —
// against the table in docs/API.md.
func TestMetricsDocumented(t *testing.T) {
	r := NewTrainingRecorder(nil)
	v := 1.0
	r.Record(SweepEvent{Sweep: 1, LogLikelihood: &v, CheckpointSeconds: &v})
	var scrape bytes.Buffer
	r.WritePrometheus(&scrape)
	obstest.CheckDocumented(t, filepath.Join("..", "..", "docs", "API.md"), "### `srclda` metrics", scrape.String())
}
