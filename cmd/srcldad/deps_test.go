package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// srcldadDeps is every in-repo package the serving daemon links, itself
// included. Training-only packages sit here because the façade links them;
// a package joining the list is a deliberate choice, not a side effect of a
// convenience import.
var srcldadDeps = []string{
	"sourcelda",
	"sourcelda/cmd/srcldad",
	"sourcelda/internal/cluster",
	"sourcelda/internal/core",
	"sourcelda/internal/corpus",
	"sourcelda/internal/infer",
	"sourcelda/internal/knowledge",
	"sourcelda/internal/labeling",
	"sourcelda/internal/mathx",
	"sourcelda/internal/obs",
	"sourcelda/internal/parallel",
	"sourcelda/internal/persist",
	"sourcelda/internal/registry",
	"sourcelda/internal/rng",
	"sourcelda/internal/smoothing",
	"sourcelda/internal/stats",
	"sourcelda/internal/textproc",
}

// TestDeps pins the in-repo package set srcldad links against srcldadDeps.
func TestDeps(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain to list dependencies with")
	}
	out, err := exec.Command(goBin, "list", "-deps",
		"-f", "{{if not .Standard}}{{.ImportPath}}{{end}}", "sourcelda/cmd/srcldad").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	got := strings.Fields(string(out))
	slices.Sort(got)
	if !slices.Equal(got, srcldadDeps) {
		t.Fatalf("srcldad links\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(srcldadDeps, "\n  "))
	}
}
