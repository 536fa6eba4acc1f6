package bench

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// PromSeries is one scrape of a Prometheus text endpoint (srcldad, srcldagw
// and srcldactl all render the same dialect): full series text, labels
// included, to value. The benchmark only ever needs sums over a metric name
// filtered by label fragments, so no label parsing is done.
type PromSeries map[string]float64

// ParseProm reads Prometheus text exposition lines, skipping comments and
// anything that does not end in a number.
func ParseProm(r io.Reader) (PromSeries, error) {
	out := PromSeries{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// Sum adds every series of the named metric whose label text contains all
// the given fragments (e.g. `stage="infer"`). A metric with no labels
// matches only when no fragments are asked for.
func (p PromSeries) Sum(name string, labelFragments ...string) float64 {
	var total float64
series:
	for series, v := range p {
		labels, ok := strings.CutPrefix(series, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		for _, frag := range labelFragments {
			if !strings.Contains(labels, frag) {
				continue series
			}
		}
		total += v
	}
	return total
}

// HistMean is the mean of a Prometheus histogram (name_sum / name_count)
// over the matching series, in the histogram's own unit; 0 when empty.
func (p PromSeries) HistMean(name string, labelFragments ...string) float64 {
	n := p.Sum(name+"_count", labelFragments...)
	if n == 0 {
		return 0
	}
	return p.Sum(name+"_sum", labelFragments...) / n
}

// Sub returns p - before series by series: the activity between two scrapes
// of cumulative counters and histograms.
func (p PromSeries) Sub(before PromSeries) PromSeries {
	out := make(PromSeries, len(p))
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}
