package sourcelda

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// facadeResultsEqual compares fitted results for bit-for-bit equality of
// everything deterministic; iteration wall-clock times are compared by
// length only.
func facadeResultsEqual(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.IterationTimes) != len(want.IterationTimes) {
		t.Fatalf("%s: iteration-time trace length %d, want %d",
			name, len(got.IterationTimes), len(want.IterationTimes))
	}
	g, w := *got, *want
	g.IterationTimes, w.IterationTimes = nil, nil
	if !reflect.DeepEqual(&g, &w) {
		t.Fatalf("%s: resumed result differs from uninterrupted run", name)
	}
}

// TestFitCheckpointResumeEquality is the facade-level acceptance contract:
// a run that checkpoints, stops early via the progress hook, and resumes
// from disk must produce the same model as an uninterrupted Fit — in the
// sequential mode and in the document-sharded mode, and whatever Threads the
// resuming process runs with: it is a resource bound, not part of the chain.
func TestFitCheckpointResumeEquality(t *testing.T) {
	c, k := buildFixture(t)
	variants := []struct {
		name          string
		set           func(*Options)
		resumeThreads int
	}{
		{"sequential", func(o *Options) {}, 0},
		{"sharded", func(o *Options) { o.Shards = 3 }, 0},
		{"sequential-threads-1-to-4", func(o *Options) { o.Threads = 1 }, 4},
		{"sharded-threads-1-to-4", func(o *Options) { o.Shards = 3; o.Threads = 1 }, 4},
	}
	for _, v := range variants {
		base := Options{
			FreeTopics:      1,
			Iterations:      40,
			Seed:            99,
			TraceLikelihood: true,
		}
		v.set(&base)

		full, err := Fit(c, k, base)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		interrupted := base
		interrupted.Checkpoint = &Checkpointing{Dir: dir, EverySweeps: 10}
		interrupted.Progress = func(p Progress) error {
			if p.Sweep == 25 {
				return ErrStopTraining // simulated crash after sweep 25
			}
			return nil
		}
		if _, err := Fit(c, k, interrupted); err != nil {
			t.Fatalf("%s: interrupted fit: %v", v.name, err)
		}
		// The newest surviving checkpoint is sweep 20; resume re-runs 21..40.
		resumeOpts := base
		if v.resumeThreads > 0 {
			resumeOpts.Threads = v.resumeThreads
		}
		resumed, err := Resume(dir, c, k, resumeOpts)
		if err != nil {
			t.Fatalf("%s: resume: %v", v.name, err)
		}
		facadeResultsEqual(t, v.name, resumed.Raw(), full.Raw())
	}
}

// TestProgressReporting pins the hook contract: consecutive 1-based sweeps,
// the configured total, NaN likelihood without tracing (a real value with),
// and checkpoint paths exactly at the cadence.
func TestProgressReporting(t *testing.T) {
	c, k := buildFixture(t)
	dir := t.TempDir()
	var reports []Progress
	_, err := Fit(c, k, Options{
		FreeTopics:      1,
		Iterations:      12,
		Seed:            5,
		TraceLikelihood: true,
		Checkpoint:      &Checkpointing{Dir: dir, EverySweeps: 5, Retain: -1},
		Progress: func(p Progress) error {
			reports = append(reports, p)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 12 {
		t.Fatalf("progress ran %d times, want 12", len(reports))
	}
	for i, p := range reports {
		if p.Sweep != i+1 {
			t.Fatalf("report %d has sweep %d, want %d", i, p.Sweep, i+1)
		}
		if p.TotalSweeps != 12 {
			t.Fatalf("report %d has total %d, want 12", i, p.TotalSweeps)
		}
		if math.IsNaN(p.LogLikelihood) {
			t.Fatalf("report %d log-likelihood is NaN with tracing on", i)
		}
		if p.TokensPerSec <= 0 {
			t.Fatalf("report %d tokens/sec %v", i, p.TokensPerSec)
		}
		wantCkpt := p.Sweep%5 == 0
		if got := p.CheckpointPath != ""; got != wantCkpt {
			t.Fatalf("report %d (sweep %d) checkpoint path %q", i, p.Sweep, p.CheckpointPath)
		}
		if wantCkpt {
			if _, err := os.Stat(p.CheckpointPath); err != nil {
				t.Fatalf("reported checkpoint missing: %v", err)
			}
		}
	}

	// Without tracing, the likelihood must be NaN (never computed).
	var p0 Progress
	_, err = Fit(c, k, Options{
		FreeTopics: 1, Iterations: 1, Seed: 5,
		Progress: func(p Progress) error { p0 = p; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(p0.LogLikelihood) {
		t.Fatalf("log-likelihood %v without tracing, want NaN", p0.LogLikelihood)
	}
}

// TestResumeRejectsChangedOptions: resuming under a different chain
// configuration must fail loudly, not silently fork the chain.
func TestResumeRejectsChangedOptions(t *testing.T) {
	c, k := buildFixture(t)
	dir := t.TempDir()
	opts := Options{
		FreeTopics: 1, Iterations: 10, Seed: 3,
		Checkpoint: &Checkpointing{Dir: dir, EverySweeps: 5},
	}
	if _, err := Fit(c, k, opts); err != nil {
		t.Fatal(err)
	}
	changed := opts
	changed.Seed = 4
	if _, err := Resume(dir, c, k, changed); err == nil {
		t.Fatal("resume with a different seed accepted")
	}
	changed = opts
	changed.Lambda = &LambdaPrior{Fixed: true, Lambda: 1}
	if _, err := Resume(dir, c, k, changed); err == nil {
		t.Fatal("resume with a different λ prior accepted")
	}
	if _, err := Resume(filepath.Join(dir, "nope.ckpt"), c, k, opts); err == nil {
		t.Fatal("resume from a missing file accepted")
	}
}

// TestResumeAtTarget: resuming a finished run is a no-op that still yields
// a usable model.
func TestResumeAtTarget(t *testing.T) {
	c, k := buildFixture(t)
	dir := t.TempDir()
	opts := Options{
		FreeTopics: 1, Iterations: 10, Seed: 8,
		Checkpoint: &Checkpointing{Dir: dir, EverySweeps: 10},
	}
	full, err := Fit(c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(dir, c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	facadeResultsEqual(t, "resume-at-target", resumed.Raw(), full.Raw())
	if len(resumed.Topics()) == 0 {
		t.Fatal("resumed model has no topics")
	}
}
