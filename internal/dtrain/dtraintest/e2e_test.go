package dtraintest

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"sourcelda/internal/dtrain"
	"sourcelda/internal/obs/obstest"
)

const waitTimeout = 60 * time.Second

// runClean trains an uninterrupted cluster and returns its result — the
// reference digest every fault test must reproduce.
func runClean(t *testing.T, opts Options) *dtrain.Result {
	t.Helper()
	cl := New(t, opts)
	for i := 0; i < opts.Workers; i++ {
		cl.StartWorker()
	}
	res, err := cl.Wait(waitTimeout)
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v\nlogs:\n%s", err, cl.Logs())
	}
	cl.Close()
	return res
}

// waitEpochsMerged polls until the coordinator has merged at least n sync
// epochs — the hook fault tests use to strike mid-run, after state exists
// to resume from.
func waitEpochsMerged(t *testing.T, cl *Cluster, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for cl.Metrics().EpochsMerged() < n {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never merged %d epochs; logs:\n%s", n, cl.Logs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKillAndResume is the acceptance e2e: a worker killed mid-epoch is
// replaced, the replacement resumes the shard from its last sync-boundary
// checkpoint, and the finished model is BIT-IDENTICAL to an uninterrupted
// run at the same staleness — verified by digest. Runs under -race in CI.
func TestKillAndResume(t *testing.T) {
	base := runtime.NumGoroutine()
	opts := Options{Workers: 2, Epochs: 3, Staleness: 2}
	want := runClean(t, opts)

	cl := New(t, opts)
	cl.StartWorker()
	victim := cl.StartWorker()
	// Slow the victim so epochs take long enough that the kill reliably
	// lands mid-run; slowness itself must not perturb the chain.
	victim.SetReadDelay(30 * time.Millisecond)
	waitEpochsMerged(t, cl, 1)
	victim.Kill()
	cl.StartWorker() // replacement

	res, err := cl.Wait(waitTimeout)
	if err != nil {
		t.Fatalf("killed run failed: %v\nlogs:\n%s", err, cl.Logs())
	}
	if res.Digest != want.Digest {
		t.Fatalf("kill-and-resume digest %#x differs from uninterrupted digest %#x\nlogs:\n%s",
			res.Digest, want.Digest, cl.Logs())
	}
	if got := cl.Metrics().WorkerFailures(); got < 1 {
		t.Fatalf("worker failures = %d, want >= 1 (was the victim killed after the run?)", got)
	}
	if !strings.Contains(cl.Logs(), "dtrain worker lost") {
		t.Fatalf("worker loss was not logged; logs:\n%s", cl.Logs())
	}
	cl.Close()
	CheckGoroutines(t, base)
}

// TestCorruptedFrameRejected injects a bit flip into a worker's count-slab
// frame. The coordinator must reject the frame loudly — counted, logged —
// replace the worker, and still converge to the uninterrupted digest:
// corruption costs a retry, never silent count damage.
func TestCorruptedFrameRejected(t *testing.T) {
	opts := Options{Workers: 2, Epochs: 2, Staleness: 1}
	want := runClean(t, opts)

	cl := New(t, opts)
	saboteur := cl.StartWorker()
	saboteur.CorruptNextLargeWrite()
	cl.StartWorker()
	// Only start the spare once the corrupt frame has been refused, so the
	// saboteur is guaranteed a shard (otherwise the spare can win the join
	// race and the armed fault never fires).
	deadline := time.Now().Add(30 * time.Second)
	for cl.Metrics().FramesRejected() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never rejected the corrupted frame; logs:\n%s", cl.Logs())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cl.StartWorker() // spare picks up the rejected worker's shard

	res, err := cl.Wait(waitTimeout)
	if err != nil {
		t.Fatalf("run with corrupted frame failed: %v\nlogs:\n%s", err, cl.Logs())
	}
	if res.Digest != want.Digest {
		t.Fatalf("digest after frame corruption %#x differs from clean digest %#x", res.Digest, want.Digest)
	}
	if got := cl.Metrics().FramesRejected(); got < 1 {
		t.Fatalf("frames rejected = %d, want >= 1; logs:\n%s", got, cl.Logs())
	}
	if !strings.Contains(cl.Logs(), "corrupt-frame") {
		t.Fatalf("frame rejection was not logged loudly; logs:\n%s", cl.Logs())
	}
}

// TestHungWorkerReplaced parks a worker in a hang (connected, silent). The
// coordinator's deadlines must detect it, hand the shard to a spare, and
// finish with the uninterrupted digest.
func TestHungWorkerReplaced(t *testing.T) {
	opts := Options{
		Workers: 2, Epochs: 3, Staleness: 1,
		IOTimeout:    500 * time.Millisecond,
		EpochTimeout: time.Second,
	}
	want := runClean(t, opts)

	cl := New(t, opts)
	cl.StartWorker()
	sleeper := cl.StartWorker()
	sleeper.SetReadDelay(30 * time.Millisecond)
	waitEpochsMerged(t, cl, 1)
	sleeper.SetHang(true)
	cl.StartWorker() // spare

	res, err := cl.Wait(waitTimeout)
	if err != nil {
		t.Fatalf("run with hung worker failed: %v\nlogs:\n%s", err, cl.Logs())
	}
	if res.Digest != want.Digest {
		t.Fatalf("digest after hang %#x differs from clean digest %#x", res.Digest, want.Digest)
	}
	if got := cl.Metrics().WorkerFailures(); got < 1 {
		t.Fatalf("worker failures = %d, want >= 1 (did the hang land after the run?)", got)
	}
}

// TestSlowWorkerSameModel pins that a straggler changes only the wall
// clock: no failures, no reassignment, identical digest.
func TestSlowWorkerSameModel(t *testing.T) {
	opts := Options{Workers: 2, Epochs: 2, Staleness: 1}
	want := runClean(t, opts)

	cl := New(t, opts)
	cl.StartWorker()
	slow := cl.StartWorker()
	slow.SetReadDelay(20 * time.Millisecond)
	res, err := cl.Wait(waitTimeout)
	if err != nil {
		t.Fatalf("run with slow worker failed: %v", err)
	}
	if res.Digest != want.Digest {
		t.Fatalf("slow-worker digest %#x differs from clean digest %#x", res.Digest, want.Digest)
	}
	if got := cl.Metrics().WorkerFailures(); got != 0 {
		t.Fatalf("slow worker was treated as failed (%d failures); logs:\n%s", got, cl.Logs())
	}
}

// TestEpochTelemetry checks the observability satellite: one JSONL event
// per merged epoch with sane fields, and the srcldactl_* Prometheus
// surface rendering.
func TestEpochTelemetry(t *testing.T) {
	opts := Options{Workers: 2, Epochs: 3, Staleness: 2}
	cl := New(t, opts)
	cl.StartWorker()
	cl.StartWorker()
	if _, err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	events := cl.EpochEvents(t)
	if len(events) != opts.Epochs {
		t.Fatalf("got %d epoch events, want %d", len(events), opts.Epochs)
	}
	for i, ev := range events {
		if ev.Epoch != i+1 || ev.Epochs != opts.Epochs || ev.Workers != opts.Workers || ev.Staleness != opts.Staleness {
			t.Fatalf("event %d has wrong identity fields: %+v", i, ev)
		}
		if ev.MergeBytes <= 0 || ev.EpochSeconds < 0 {
			t.Fatalf("event %d has implausible measurements: %+v", i, ev)
		}
	}
	var prom strings.Builder
	cl.Metrics().WritePrometheus(&prom)
	obstest.CheckExposition(t, prom.String())
	for _, series := range []string{
		"srcldactl_epoch 3", "srcldactl_epochs_total 3", "srcldactl_workers 2",
		"srcldactl_staleness 2", "srcldactl_merge_bytes_total", "srcldactl_worker_lag_seconds",
		"srcldactl_frames_rejected_total 0", "srcldactl_worker_failures_total 0",
		"srcldactl_epoch_seconds_bucket",
	} {
		if !strings.Contains(prom.String(), series) {
			t.Fatalf("Prometheus output missing %q:\n%s", series, prom.String())
		}
	}
}
