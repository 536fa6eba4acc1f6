package main

import (
	"testing"

	"sourcelda/cmd/internal/flagdocs"
)

// srcldaDeps is every in-repo package srclda links, itself included. The
// baselines (lda, eda, ctm) and the synthetic demo corpus (synth) sit here
// because -model and the built-in demo run them; a package joining the list
// is a deliberate choice, not a side effect of a convenience import.
var srcldaDeps = []string{
	"sourcelda",
	"sourcelda/cmd/internal/traincli",
	"sourcelda/cmd/srclda",
	"sourcelda/internal/cluster",
	"sourcelda/internal/core",
	"sourcelda/internal/corpus",
	"sourcelda/internal/ctm",
	"sourcelda/internal/eda",
	"sourcelda/internal/infer",
	"sourcelda/internal/knowledge",
	"sourcelda/internal/labeling",
	"sourcelda/internal/lda",
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

// TestDeps pins the in-repo package set srclda links against srcldaDeps.
func TestDeps(t *testing.T) {
	flagdocs.CheckDeps(t, "sourcelda/cmd/srclda", srcldaDeps)
}
