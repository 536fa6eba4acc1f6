package main

import (
	"testing"

	"sourcelda/cmd/internal/flagdocs"
)

// srcldactlDeps is every in-repo package srcldactl links, itself included. The
// façade and the training packages sit here because coordinator and
// workers build the chain; a package joining the list is a deliberate
// choice, not a side effect of a convenience import.
var srcldactlDeps = []string{
	"sourcelda",
	"sourcelda/cmd/internal/traincli",
	"sourcelda/cmd/srcldactl",
	"sourcelda/internal/cluster",
	"sourcelda/internal/core",
	"sourcelda/internal/corpus",
	"sourcelda/internal/dtrain",
	"sourcelda/internal/infer",
	"sourcelda/internal/knowledge",
	"sourcelda/internal/labeling",
	"sourcelda/internal/mathx",
	"sourcelda/internal/obs",
	"sourcelda/internal/parallel",
	"sourcelda/internal/persist",
	"sourcelda/internal/rng",
	"sourcelda/internal/smoothing",
	"sourcelda/internal/stats",
	"sourcelda/internal/synth",
	"sourcelda/internal/textproc",
}

// TestDeps pins the in-repo package set srcldactl links against srcldactlDeps.
func TestDeps(t *testing.T) {
	flagdocs.CheckDeps(t, "sourcelda/cmd/srcldactl", srcldactlDeps)
}
