package obstest

import (
	"os"
	"strings"
	"testing"
)

// volatileSuffixes name the families whose values no test can pin: the
// process clock and the Go runtime's gauges. Every renderer writes them.
var volatileSuffixes = []string{
	"_uptime_seconds", "_goroutines", "_heap_alloc_bytes", "_heap_sys_bytes", "_gc_cycles_total",
}

// MaskVolatile replaces the value of every unlabeled sample of a volatile
// family with "<volatile>", leaving its name and every other line alone.
func MaskVolatile(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		name, _, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		for _, sfx := range volatileSuffixes {
			if strings.HasSuffix(name, sfx) {
				lines[i] = name + " <volatile>"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// CheckGolden fails the test unless got equals the file at path byte for
// byte. With UPDATE_GOLDEN=1 in the environment it rewrites the file instead
// — only for an output change that is meant.
func CheckGolden(t testing.TB, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(data), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines rendered, %d recorded", path, len(gl), len(wl))
	}
}
