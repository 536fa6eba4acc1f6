package obstest

import (
	"os"
	"strings"
	"testing"
)

// CheckDocumented is the metric-docs drift gate the renderers' packages
// share, in the style of cmd/internal/flagdocs: it diffs the families a
// scrape declares on its # TYPE lines — name and type — against the table
// under the markdown heading section of the file at docPath, in both
// directions. Table rows read "| `name` | type | labels | meaning |".
func CheckDocumented(t testing.TB, docPath, section, scrape string) {
	t.Helper()
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			inSection = strings.TrimSpace(line) == section
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("%s: unparseable metric-table row %q", docPath, line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := documented[name]; dup {
			t.Errorf("%s documents %s twice under %s", docPath, name, section)
		}
		documented[name] = strings.TrimSpace(cells[2])
	}
	if len(documented) == 0 {
		t.Fatalf("no metric table found under %q in %s", section, docPath)
	}
	rendered := map[string]string{}
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			rendered[name] = kind
		}
	}
	for name, kind := range rendered {
		if doc, ok := documented[name]; !ok {
			t.Errorf("%s is rendered but missing from the %s table in %s", name, section, docPath)
		} else if doc != kind {
			t.Errorf("%s is a %s, %s says %s", name, kind, docPath, doc)
		}
	}
	for name := range documented {
		if _, ok := rendered[name]; !ok {
			t.Errorf("%s documents %s under %s, which the process does not render", docPath, name, section)
		}
	}
}
