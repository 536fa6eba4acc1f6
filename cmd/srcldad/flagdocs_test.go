package main

import (
	"flag"
	"testing"

	"sourcelda/cmd/internal/flagdocs"
)

// TestFlagsDocumented diffs srcldad's actual flag set against the table in
// docs/OPERATIONS.md.
func TestFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("srcldad", flag.ContinueOnError)
	defineFlags(fs)
	flagdocs.Check(t, fs, "### `srcldad` flags")
}
