// Package flagdocs is the docs-drift gate the cmd/* test suites share: it
// diffs a command's defined flag set against its documented flag table in
// docs/OPERATIONS.md, in both directions, so the table cannot silently rot
// when a flag is added, renamed, or removed. CI runs it as its "Flag docs"
// step.
package flagdocs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docPath is docs/OPERATIONS.md as seen from a cmd/<name> test's working
// directory.
var docPath = filepath.Join("..", "..", "docs", "OPERATIONS.md")

// Check asserts that fs and the flag table under the markdown heading section
// (e.g. "### `srclda` flags") name exactly the same flags.
func Check(t *testing.T, fs *flag.FlagSet, section string) {
	t.Helper()
	documented := documentedFlags(t, docPath, section)
	defined := map[string]bool{}
	fs.VisitAll(func(fl *flag.Flag) { defined[fl.Name] = true })
	for name := range defined {
		if !documented[name] {
			t.Errorf("flag -%s exists but is missing from the %s table in %s", name, section, docPath)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("%s documents -%s under %s, which the binary does not define", docPath, name, section)
		}
	}
}

// documentedFlags extracts the flag names from the table under section: rows
// of the form "| `-name` | ... |".
func documentedFlags(t *testing.T, path, section string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cannot read %s: %v", path, err)
	}
	out := map[string]bool{}
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			inSection = strings.TrimSpace(line) == section
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `-") {
			continue
		}
		rest := strings.TrimPrefix(line, "| `-")
		name, _, ok := strings.Cut(rest, "`")
		if !ok {
			t.Fatalf("unparseable flag-table row %q", line)
		}
		out[name] = true
	}
	if len(out) == 0 {
		t.Fatalf("no flag table found under %q in %s", section, path)
	}
	return out
}
