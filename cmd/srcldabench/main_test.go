package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sourcelda/internal/bench"
)

// The benchmark driver appends `--workload <name> --seed <n> --seconds <s>
// --trace <0|1>` to BENCHMARK.json's command.
func TestDriverFlagSpelling(t *testing.T) {
	c, err := parseFlags(strings.Fields("--workload serve_feed --seed 7 --seconds 12 --trace 1"))
	if err != nil {
		t.Fatal(err)
	}
	if c.workload != "serve_feed" || c.seed != 7 || c.seconds != 12 || c.trace != 1 || c.quick || c.compare {
		t.Errorf("parsed %+v", c)
	}
	if c, err = parseFlags(strings.Fields("--workload all --seed 1 --seconds 3 --trace 0")); err != nil || c.trace != 0 {
		t.Errorf("--trace 0: %+v, %v", c, err)
	}
	if c, err = parseFlags(nil); err != nil || c.workload != "all" || c.seconds != bench.RefSeconds {
		t.Errorf("defaults: %+v, %v", c, err)
	}
	for _, bad := range []string{"--trace 2", "--workload x stray", "--seed notanumber"} {
		if _, err := parseFlags(strings.Fields(bad)); err == nil {
			t.Errorf("%q must be rejected", bad)
		}
	}
	if c, err = parseFlags(strings.Fields("-compare a.json b.json")); err != nil || !c.compare || len(c.args) != 2 {
		t.Errorf("-compare: %+v, %v", c, err)
	}
}

func report(workload string, failed int) *bench.Report {
	return &bench.Report{
		Workload: workload, Seed: 1, Seconds: 12, Comparable: true, Correct: failed == 0,
		Attempted: 100, Failed: failed,
		Metrics: map[string]bench.Metric{
			"setup_s":      {Value: 1.25, Unit: "s"},
			"infer_p50_ms": {Value: 3.5, Unit: "ms", N: 900},
		},
		Ungated: map[string]bench.Metric{"infer_docs_per_s": {Value: 900, Unit: "docs/s", N: 64}},
	}
}

func TestEmitEndsWithTheContractObject(t *testing.T) {
	var out bytes.Buffer
	if err := emit(&out, []*bench.Report{report("serve_feed", 0)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("one workload prints its report and the contract line, got %d lines", len(lines))
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 {
		t.Errorf("the contract object has exactly four keys, got %d: %s", len(last), lines[1])
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 || len(metrics["infer_p50_ms"]) != 2 || metrics["infer_p50_ms"]["value"] != 3.5 || metrics["setup_s"]["unit"] != "s" {
		t.Errorf("contract metrics carry value and unit only, and no ungated numbers: %s", last["metrics"])
	}
	if string(last["correct"]) != "true" || string(last["attempted"]) != "100" || string(last["failed"]) != "0" {
		t.Errorf("contract counts: %s", lines[1])
	}

	out.Reset()
	if err := emit(&out, []*bench.Report{report("serve_feed", 0), report("serve_gateway", 0)}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 2 {
		t.Errorf("-workload all prints one report per workload and no contract line, got %d lines", n)
	}
	out.Reset()
	if err := emit(&out, []*bench.Report{report("serve_feed", 3)}); err == nil {
		t.Error("failed operations must make the command fail")
	}
	if !strings.Contains(out.String(), `"failed":3`) {
		t.Error("the result is still printed when operations failed")
	}
}

func TestCompareReadsWhatEmitWrote(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		var out bytes.Buffer
		for seed := 0; seed < 4; seed++ {
			r := report("serve_feed", 0)
			r.Metrics["infer_p50_ms"] = bench.Metric{Value: p50 + float64(seed)*0.01, Unit: "ms", N: 900}
			if err := emit(&out, []*bench.Report{r}); err != nil { // contract lines in between must be skipped
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 3.5), write("same.json", 3.5), write("slow.json", 5.0)
	if err := runCompare([]string{base, same}); err != nil {
		t.Errorf("identical runs must compare clean: %v", err)
	}
	if err := runCompare([]string{base, slow}); err == nil {
		t.Error("a 43% slower p50 must fail the comparison")
	}
	if err := runCompare([]string{base}); err == nil {
		t.Error("-compare needs two files")
	}
}
