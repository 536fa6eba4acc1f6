// Package flagdocs holds the checks the cmd/* test suites share. Check is
// the docs-drift gate: it diffs a command's defined flag set against its
// documented flag table in docs/OPERATIONS.md, in both directions, so the
// table cannot silently rot when a flag is added, renamed, or removed; CI
// runs it as its "Flag docs" step. CheckDeps pins the in-repo packages a
// command links, so a package joins a product binary only on purpose.
package flagdocs

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// CheckDeps asserts that the in-repo packages importPath links, itself
// included, are exactly want (sorted). It skips when no go toolchain is on
// the path.
func CheckDeps(t *testing.T, importPath string, want []string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain to list dependencies with")
	}
	out, err := exec.Command(goBin, "list", "-deps",
		"-f", "{{if not .Standard}}{{.ImportPath}}{{end}}", importPath).CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	got := strings.Fields(string(out))
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s links\n  %s\nwant\n  %s", importPath, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
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
