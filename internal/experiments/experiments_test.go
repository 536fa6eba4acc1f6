package experiments

import (
	"strings"
	"testing"
)

func TestRegistryWellFormed(t *testing.T) {
	ids := IDs()
	want := []string{"case-study", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "table1", "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f"}
	if len(ids) != len(want) {
		t.Fatalf("have %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %q, want %q", i, ids[i], id)
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q underspecified", e.ID)
		}
	}
	if _, ok := ByID("fig6"); !ok {
		t.Fatal("ByID(fig6) missed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) found something")
	}
}

// runQuick executes an experiment in Quick mode and requires the paper's
// shape to hold — these are the repository's end-to-end integration tests.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	rep, err := e.Run(Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report id %q", rep.ID)
	}
	if len(rep.Lines) == 0 {
		t.Fatalf("%s produced no output lines", id)
	}
	if rep.Parameters == "" {
		t.Fatalf("%s did not record parameters", id)
	}
	if !rep.ShapeOK {
		t.Errorf("%s: paper shape did not hold:\n%s", id, strings.Join(rep.ShapeNotes, "\n"))
	}
	return rep
}

func TestCaseStudyQuick(t *testing.T) {
	rep := runQuick(t, "case-study")
	if rep.Metrics["sourcelda_ideal"] != 1 {
		t.Fatal("Source-LDA did not produce the ideal case-study assignments")
	}
}

func TestFig2Quick(t *testing.T) {
	rep := runQuick(t, "fig2")
	if rep.Metrics["worst_median_js"] <= 0 {
		t.Fatal("degenerate JS statistics")
	}
	// 20 topics + header.
	if len(rep.Lines) != 21 {
		t.Fatalf("expected 21 lines, got %d", len(rep.Lines))
	}
}

func TestFig3Quick(t *testing.T) {
	rep := runQuick(t, "fig3")
	if rep.Metrics["js_at_0"] <= rep.Metrics["js_at_1"] {
		t.Fatal("JS should fall from λ=0 to λ=1")
	}
}

func TestFig4Quick(t *testing.T) {
	rep := runQuick(t, "fig4")
	if rep.Metrics["smoothed_nonlinearity"] >= rep.Metrics["raw_nonlinearity"] {
		t.Fatal("smoothing should reduce nonlinearity")
	}
}

func TestFig5Quick(t *testing.T) {
	rep := runQuick(t, "fig5")
	if rep.Metrics["changed_topics"] == 0 {
		t.Fatal("augmentation changed nothing")
	}
}

func TestFig6Quick(t *testing.T) {
	rep := runQuick(t, "fig6")
	if !(rep.Metrics["src_js"] < rep.Metrics["eda_js"] && rep.Metrics["src_js"] < rep.Metrics["ctm_js"]) {
		t.Fatalf("JS ordering broken: src=%v eda=%v ctm=%v",
			rep.Metrics["src_js"], rep.Metrics["eda_js"], rep.Metrics["ctm_js"])
	}
}

func TestFig7Quick(t *testing.T) {
	rep := runQuick(t, "fig7")
	if rep.Metrics["baseline_accuracy"] <= 0 {
		t.Fatal("baseline accuracy missing")
	}
	if rep.Metrics["baseline_perplexity"] <= 1 {
		t.Fatal("perplexity must exceed 1")
	}
}

func TestTable1Quick(t *testing.T) {
	rep := runQuick(t, "table1")
	if rep.Metrics["src_discovered"] < rep.Metrics["ctm_discovered"] {
		t.Fatal("discovery ordering broken")
	}
}

func TestFig8aQuick(t *testing.T) {
	rep := runQuick(t, "fig8a")
	for _, name := range []string{"SRC-Unk", "EDA-Unk", "CTM-Unk", "LDA-Unk"} {
		if _, ok := rep.Metrics["accuracy_"+name]; !ok {
			t.Fatalf("missing accuracy for %s", name)
		}
	}
}

func TestFig8bQuick(t *testing.T) {
	rep := runQuick(t, "fig8b")
	if rep.Metrics["accuracy_SRC-Exact"] < rep.Metrics["accuracy_LDA-Exact"] {
		t.Fatal("SRC-Exact should beat LDA-Exact")
	}
}

func TestFig8cQuick(t *testing.T) {
	rep := runQuick(t, "fig8c")
	if rep.Metrics["src_exact_mean_pmi"] == 0 && rep.Metrics["lda_mean_pmi"] == 0 {
		t.Fatal("PMI metrics degenerate")
	}
}

func TestFig8dQuick(t *testing.T) {
	rep := runQuick(t, "fig8d")
	if rep.Metrics["theta_js_SRC-Unk"] <= 0 {
		t.Fatal("θ JS missing")
	}
}

func TestFig8eQuick(t *testing.T) {
	rep := runQuick(t, "fig8e")
	if rep.Metrics["theta_js_SRC-Exact"] <= 0 {
		t.Fatal("θ JS missing")
	}
}

func TestFig8fQuick(t *testing.T) {
	rep := runQuick(t, "fig8f")
	for _, name := range []string{"t_ratio", "time_ratio_1thread", "avg_seconds_T150_threads1",
		"draw_ns_T150_sequential", "draw_ns_T150_simple_parallel_threads3", "draw_ns_T150_prefix_sums_threads3"} {
		if rep.Metrics[name] <= 0 {
			t.Errorf("metric %s missing", name)
		}
	}
	// runQuick already failed on the shape check; this names the pin.
	if n := rep.Metrics["kernel_index_mismatches"]; n != 0 {
		t.Errorf("Algorithms 2/3 disagreed with the sequential scan on %v draws", n)
	}
}

func TestMemoizedSharing(t *testing.T) {
	// fig8a and fig8d share the mixed-model fit; the second call must be a
	// cache hit producing identical metrics.
	a, err := fig8Mixed(Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fig8Mixed(Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoization returned different instances")
	}
}

func TestSortedMetricNames(t *testing.T) {
	m := map[string]float64{"b": 1, "a": 2}
	names := sortedMetricNames(m)
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}
