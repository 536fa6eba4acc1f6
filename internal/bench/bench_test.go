package bench

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildErr  error
	buildRoot string
)

// builtRoot builds the four binaries once per test binary, into the same
// ignored directory the command uses so a warm tree relinks nothing, and
// returns the module root.
func builtRoot(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		cwd, err := os.Getwd()
		if err != nil {
			buildErr = err
			return
		}
		if buildRoot, buildErr = ModuleRoot(cwd); buildErr != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		_, buildErr = BuildBinaries(ctx, buildRoot, filepath.Join(buildRoot, ".bench_build", "bin"))
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildRoot
}

// quickOptions returns options for a -quick run of one workload in a fresh
// work directory.
func quickOptions(t *testing.T, workload string, trace bool) Options {
	t.Helper()
	work := t.TempDir()
	return Options{
		Workload: workload, Seed: 1, Seconds: 1, Trace: trace, Quick: true,
		BinDir: filepath.Join(builtRoot(t), ".bench_build", "bin"), WorkDir: work, OutDir: work,
	}
}

// TestQuickSuite runs every workload end to end and traced at -quick size,
// side by side, and holds the results against BENCHMARK.json: every declared
// workload runs, every operation succeeds, an untraced run reports exactly
// the end-to-end metrics and a traced run exactly the per-layer ones. A
// benchmark that has rotted against the code it measures fails here.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the real binaries")
	}
	manifest, err := ReadManifest(filepath.Join(builtRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(manifest.Workloads), len(Workloads()))
	}
	if manifest.RunSeconds != RefSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d but the workloads are sized for %d", manifest.RunSeconds, RefSeconds)
	}
	for i, w := range manifest.Workloads {
		spec := Workloads()[i]
		if w.Name != spec.Name || w.Why != spec.Why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, spec.Name, spec.Why)
		}
		for _, trace := range []bool{false, true} {
			name, want := w.Name+"/end_to_end", manifest.EndToEnd
			if trace {
				name, want = w.Name+"/traced", manifest.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts := quickOptions(t, w.Name, trace)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				rep, err := Run(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("%d of %d operations failed: %+v", rep.Failed, rep.Attempted, rep.Checks)
				}
				if rep.Comparable {
					t.Error("a -quick report must be stamped comparable: false")
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is declared in BENCHMARK.json but not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rep.Metrics) != len(want) {
					for name := range rep.Metrics {
						found := false
						for _, m := range want {
							found = found || m.Name == name
						}
						if !found {
							t.Errorf("metric %s is reported but not declared in BENCHMARK.json", name)
						}
					}
				}
				if line, err := rep.ContractLine(); err != nil || len(line) == 0 {
					t.Errorf("contract line: %v", err)
				}
				if trace {
					if _, err := os.Stat(filepath.Join(opts.OutDir, "trace_"+w.Name+".json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(opts.WorkDir, "run-*")); len(left) != 0 {
					t.Errorf("scratch left behind: %v", left)
				}
			})
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{Op: 1, Name: "loadgen.request", StartNS: 0, EndNS: 100},
		{Op: 1, Name: "gateway.handler", Parent: "loadgen.request", StartNS: 10, EndNS: 90},
		{Op: 1, Name: "registry.handler", Parent: "gateway.handler", StartNS: 20, EndNS: 70},
		{Op: 2, Name: "loadgen.request", StartNS: 200, EndNS: 260},
		{Op: 2, Name: "gateway.handler", Parent: "loadgen.request", StartNS: 210, EndNS: 250},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{"loadgen.request": 20 + 20, "gateway.handler": 30 + 40, "registry.handler": 50}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	spec := Workloads()[3].Quick()
	sizes := spec.Sizes(1, true)
	a, err := Generate(spec, sizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(spec, sizes, 7)
	c, _ := Generate(spec, sizes, 8)
	if string(a.PhaseA[0]) != string(b.PhaseA[0]) || a.TrainTexts[3] != b.TrainTexts[3] || string(a.Feed[1]) != string(b.Feed[1]) {
		t.Error("the same seed must give the same bytes")
	}
	if a.TrainTexts[3] == c.TrainTexts[3] {
		t.Error("another seed must give other inputs")
	}
	if len(a.PhaseA) != sizes.PhaseA || len(a.PhaseB) != sizes.PhaseB || len(a.FeedTexts) != sizes.FeedDocs || len(a.Probes) != sizes.Probes {
		t.Errorf("sizes %+v not honoured", sizes)
	}
	if len(a.Articles) != spec.SourceTopics || len(a.LiveLabels) != spec.LiveTopics {
		t.Errorf("%d articles, %d live", len(a.Articles), len(a.LiveLabels))
	}
}
