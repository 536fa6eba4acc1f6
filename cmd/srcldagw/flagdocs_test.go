package main

import (
	"flag"
	"testing"

	"sourcelda/cmd/internal/flagdocs"
	"sourcelda/internal/gateway"
)

// TestFlagsDocumented diffs srcldagw's actual flag set against the table in
// docs/OPERATIONS.md.
func TestFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("srcldagw", flag.ContinueOnError)
	defineFlags(fs)
	flagdocs.Check(t, fs, "### `srcldagw` flags")
}

func TestParseBackends(t *testing.T) {
	specs, err := parseBackends("r1=http://127.0.0.1:8081, r2=http://127.0.0.1:8082")
	if err != nil {
		t.Fatal(err)
	}
	want := []gateway.BackendSpec{
		{ID: "r1", URL: "http://127.0.0.1:8081"},
		{ID: "r2", URL: "http://127.0.0.1:8082"},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"", "r1", "=http://x", "r1=", ",,"} {
		if _, err := parseBackends(bad); err == nil {
			t.Errorf("parseBackends(%q) accepted invalid input", bad)
		}
	}
}
