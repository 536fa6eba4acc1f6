package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Manifest is BENCHMARK.json: the benchmark's contract with its driver, and
// the source of every metric's direction and regression bound.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// ReadManifest loads BENCHMARK.json.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Verdicts of Compare.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictImproved   = "improved"
	VerdictUnresolved = "unresolved" // the runs spread wider than the bound: not "unchanged"
	VerdictInfo       = "-"          // per-layer: shown, never judged
)

// Row is one (workload, metric) comparison.
type Row struct {
	Workload, Metric, Unit string
	Before, After          float64 // medians
	NBefore, NAfter        int     // runs behind each median
	SpreadBefore           float64 // (Q3−Q1)/median of the before runs
	SpreadAfter            float64
	Change                 float64 // signed share of Before; positive is worse
	Bound                  float64
	Verdict                string
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is what the benchmark driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; with fewer
// than four runs, the full range.
func spread(values []float64) float64 {
	med := Median(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	if len(values) < 4 {
		s := append([]float64(nil), values...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / med
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

// judge applies an end-to-end metric's direction and bound to two sets of
// runs. worse > 0 means after reads worse than before.
func judge(before, after []float64, spec MetricSpec) Row {
	row := Row{
		Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound,
		Before: Median(before), After: Median(after), NBefore: len(before), NAfter: len(after),
		SpreadBefore: spread(before), SpreadAfter: spread(after),
	}
	sign := 1.0 // lower is better: growth is worse
	if spec.Better == "higher" {
		sign = -1
	}
	if row.Before != 0 {
		row.Change = sign * (row.After - row.Before) / row.Before
	}
	allBetter := true
	for _, a := range after {
		for _, b := range before {
			if sign*(a-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case row.SpreadBefore > spec.Bound || row.SpreadAfter > spec.Bound:
		// Too noisy to call unchanged; only a clean sweep counts as a gain.
		row.Verdict = VerdictUnresolved
		if allBetter {
			row.Verdict = VerdictImproved
		}
	case row.Change > spec.Bound:
		row.Verdict = VerdictRegressed
	case row.Change < 0 && -row.Change > max(row.SpreadBefore, spec.Bound/3):
		row.Verdict = VerdictImproved
	default:
		row.Verdict = VerdictOK
	}
	return row
}

// Compare judges every end-to-end (workload, metric) pair present in both
// sets of reports and lists the per-layer ones for information. Traced and
// untraced reports may be mixed in a file; only comparable (non -quick)
// reports are used. It also reports whether any operation failed after.
func Compare(m *Manifest, before, after []*Report) (rows []Row, failedAfter int) {
	type key struct{ workload, metric string }
	collect := func(reports []*Report) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range reports {
			if !r.Comparable {
				continue
			}
			for name, v := range r.Metrics {
				out[key{r.Workload, name}] = append(out[key{r.Workload, name}], v.Value)
			}
		}
		return out
	}
	b, a := collect(before), collect(after)
	for _, r := range after {
		failedAfter += r.Failed
	}
	for _, w := range m.Workloads {
		for _, group := range []struct {
			specs []MetricSpec
			gated bool
		}{{m.EndToEnd, true}, {m.PerLayer, false}} {
			for _, spec := range group.specs {
				k := key{w.Name, spec.Name}
				if len(b[k]) == 0 || len(a[k]) == 0 {
					continue
				}
				row := judge(b[k], a[k], spec)
				row.Workload = w.Name
				if !group.gated {
					row.Verdict = VerdictInfo
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, failedAfter
}

// WriteRows prints one line per row.
func WriteRows(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbefore\tafter\tunit\tchange\tbound\tspread before/after\truns\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.Verdict != VerdictInfo {
			bound = fmt.Sprintf("%.0f%%", r.Bound*100)
		}
		// Change is positive when worse, whichever way the metric points.
		change := fmt.Sprintf("%.1f%% worse", r.Change*100)
		if r.Change < 0 {
			change = fmt.Sprintf("%.1f%% better", -r.Change*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%.1f%% / %.1f%%\t%d/%d\t%s\n",
			r.Workload, r.Metric, r.Before, r.After, r.Unit, change, bound,
			r.SpreadBefore*100, r.SpreadAfter*100, r.NBefore, r.NAfter, r.Verdict)
	}
	tw.Flush()
}
