package main

import (
	"flag"
	"io"
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

// TestBatchFlagsRemoved: the micro-batching knobs went with the dispatcher;
// a command line that still sets one fails to parse, naming the flag, instead
// of being accepted and ignored.
func TestBatchFlagsRemoved(t *testing.T) {
	for _, arg := range []string{"-batch-window=2ms", "-max-batch=32"} {
		fs := flag.NewFlagSet("srcldad", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs)
		if err := fs.Parse([]string{"-bundle", "m.bundle", arg}); err == nil {
			t.Errorf("%s parsed; want a flag-not-defined error", arg)
		}
	}
}
