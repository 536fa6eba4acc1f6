package main

import (
	"testing"

	"sourcelda/cmd/internal/flagdocs"
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
	flagdocs.CheckDeps(t, "sourcelda/cmd/srcldad", srcldadDeps)
}
