package main

import (
	"errors"
	"flag"
	"testing"

	"sourcelda/cmd/internal/flagdocs"
	"sourcelda/internal/core"
)

// TestFlagsDocumented diffs srcldactl's actual flag set against the table in
// docs/OPERATIONS.md.
func TestFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
	defineFlags(fs)
	flagdocs.Check(t, fs, "### `srcldactl` flags")
}

// TestSpecFromFlags pins the flag → ChainSpec mapping, in particular the
// λ mode switch: -lambda -1 integrates λ out, a value in [0,1] fixes it.
func TestSpecFromFlags(t *testing.T) {
	c, src, err := loadData("", "", 42)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse([]string{"-free", "7", "-sampler", "sparse", "-sweepmode", "sharded-docs", "-shards", "4", "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	spec := specFromFlags(f, c, src)
	if spec.NumFreeTopics != 7 || spec.Sampler != "sparse" || spec.SweepMode != "sharded-docs" || spec.Shards != 4 || spec.Seed != 99 {
		t.Fatalf("spec did not pick up flags: %+v", spec)
	}
	if spec.LambdaMode != "integrated" {
		t.Fatalf("default lambda mode = %q, want integrated", spec.LambdaMode)
	}
	if _, err := spec.Options(spec.Seed); err != nil {
		t.Fatalf("flag-built spec fails validation: %v", err)
	}

	fs2 := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
	f2 := defineFlags(fs2)
	if err := fs2.Parse([]string{"-lambda", "0.8"}); err != nil {
		t.Fatal(err)
	}
	spec2 := specFromFlags(f2, c, src)
	if spec2.LambdaMode != "fixed" || spec2.Lambda != 0.8 {
		t.Fatalf("-lambda 0.8 gave mode %q λ %g, want fixed 0.8", spec2.LambdaMode, spec2.Lambda)
	}
	if spec2.Alpha != 50.0/float64(5+src.Len()) || spec2.Beta != 200.0/float64(c.VocabSize()) {
		t.Fatalf("Alpha/Beta (%g, %g) do not match srclda's data-derived formulas", spec2.Alpha, spec2.Beta)
	}

	// The spec is validated before any worker joins: a retired kernel name
	// stops the coordinator by name, a typo as unknown.
	for name, retired := range map[string]bool{"simple-parallel": true, "prefix-sums": true, "auto": false} {
		fs3 := flag.NewFlagSet("srcldactl", flag.ContinueOnError)
		f3 := defineFlags(fs3)
		if err := fs3.Parse([]string{"-sampler", name}); err != nil {
			t.Fatal(err)
		}
		spec3 := specFromFlags(f3, c, src)
		if _, err := spec3.Options(spec3.Seed); err == nil || errors.Is(err, core.ErrRetiredSampler) != retired {
			t.Fatalf("-sampler %s: spec validation error %v", name, err)
		}
	}
}
