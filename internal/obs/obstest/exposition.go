// Package obstest checks Prometheus text expositions in tests. It imports
// nothing from this module, so every renderer's package — internal/obs
// included — can run it from its own tests.
package obstest

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// CheckExposition fails the test unless text is a well-formed exposition:
// every sample's family is declared before it by exactly one # HELP and one
// # TYPE line, no family is declared twice, label values use no escape but
// the format's three (\\, \", \n), and every histogram series has
// non-decreasing _bucket counts ending in a le="+Inf" bucket equal to its
// _count.
func CheckExposition(t testing.TB, text string) {
	t.Helper()
	help := map[string]int{}
	typ := map[string]string{}
	type bucket struct {
		le    string
		count float64
	}
	buckets := map[string][]bucket{} // family{labels without le} → buckets in order
	counts := map[string]float64{}   // family{labels} → _count
	for n, line := range strings.Split(text, "\n") {
		n++
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if help[name]++; help[name] > 1 {
				t.Errorf("line %d: second # HELP for %s", n, name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if _, dup := typ[name]; dup {
				t.Errorf("line %d: second # TYPE for %s", n, name)
			}
			typ[name] = kind
		case strings.HasPrefix(line, "#"):
		default:
			name, labels, value, ok := parseSample(line)
			if !ok {
				t.Errorf("line %d: unparseable sample %q", n, line)
				continue
			}
			if esc := foreignEscape(labels); esc != "" {
				t.Errorf("line %d: label value escape %s is not one of \\\\, \\\", \\n", n, esc)
			}
			family, suffix := name, ""
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, sfx); found && typ[base] == "histogram" {
					family, suffix = base, sfx
				}
			}
			if help[family] != 1 || typ[family] == "" {
				t.Errorf("line %d: sample %s is not preceded by one # HELP and one # TYPE for %s", n, name, family)
			}
			switch suffix {
			case "_bucket":
				le, rest := splitLE(labels)
				key := family + "{" + rest + "}"
				buckets[key] = append(buckets[key], bucket{le, value})
			case "_count":
				counts[family+"{"+labels+"}"] = value
			}
		}
	}
	for name := range help {
		if typ[name] == "" {
			t.Errorf("# HELP for %s has no # TYPE", name)
		}
	}
	for name := range typ {
		if help[name] == 0 {
			t.Errorf("# TYPE for %s has no # HELP", name)
		}
	}
	keys := make([]string, 0, len(buckets))
	for key := range buckets {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		bs := buckets[key]
		for i := 1; i < len(bs); i++ {
			if bs[i].count < bs[i-1].count {
				t.Errorf("%s: bucket le=%s holds %v, fewer than le=%s with %v", key, bs[i].le, bs[i].count, bs[i-1].le, bs[i-1].count)
			}
		}
		last := bs[len(bs)-1]
		if last.le != "+Inf" {
			t.Errorf("%s: last bucket is le=%s, want +Inf", key, last.le)
		}
		if count, ok := counts[key]; !ok || count != last.count {
			t.Errorf("%s: +Inf bucket %v, _count %v (present %v)", key, last.count, count, ok)
		}
	}
}

// parseSample splits `name{labels} value` or `name value`; labels comes back
// without its braces. Quoted label values may hold any byte, escaped quotes
// included.
func parseSample(line string) (name, labels string, value float64, ok bool) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", 0, false
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		end, quoted := -1, false
		for j := 1; j < len(rest) && end < 0; j++ {
			switch c := rest[j]; {
			case c == '\\' && quoted:
				j++
			case c == '"':
				quoted = !quoted
			case c == '}' && !quoted:
				end = j
			}
		}
		if end < 0 {
			return "", "", 0, false
		}
		labels, rest = rest[1:end], rest[end+1:]
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	return name, labels, value, err == nil
}

// foreignEscape returns the first backslash escape in a label set that the
// exposition format does not define — what Go's %q writes for a tab or a
// control byte, and a Prometheus parser rejects — or "".
func foreignEscape(labels string) string {
	for i := 0; i+1 < len(labels); i++ {
		if labels[i] != '\\' {
			continue
		}
		if c := labels[i+1]; c != '\\' && c != '"' && c != 'n' {
			return labels[i : i+2]
		}
		i++
	}
	return ""
}

// splitLE takes the le label — which the renderers always write last — off
// a _bucket label set.
func splitLE(labels string) (le, rest string) {
	i := strings.LastIndex(labels, `le="`)
	if i < 0 {
		return "", labels
	}
	return strings.TrimSuffix(labels[i+len(`le="`):], `"`), strings.TrimSuffix(labels[:i], ",")
}
