package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one measured value. N is the sample count behind a percentile
// or median; it is printed with the value everywhere and omitted only for
// single measurements.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Check is one output check; a failed check counts as a failed operation.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Env is where a report was measured. Reports from different environments
// are not comparable; -compare prints both.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// Report is the full result of one workload run: one JSON object per
// workload on standard output.
type Report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Comparable is false for -quick runs, whose sizes keep no regime.
	Comparable bool `json:"comparable"`
	// LoadgenValid is false when the generator itself ran late (open-loop
	// lateness p99 above 1 ms): latencies still include the wait, but the
	// offered schedule was not the nominal one.
	LoadgenValid bool              `json:"loadgen_valid"`
	Env          Env               `json:"env"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Checks       []Check           `json:"checks"`
	Metrics      map[string]Metric `json:"metrics"`
	// Ungated are numbers an end-to-end run observes but BENCHMARK.json does
	// not gate, because on a shared two-core box they do not repeat within
	// any bound worth having (see the README). They stay out of the
	// contract line and get no verdict from -compare.
	Ungated map[string]Metric `json:"ungated,omitempty"`
}

// ContractLine renders the four-key object the benchmark contract wants as
// the last line of standard output.
func (r *Report) ContractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// WriteTable prints the report for a person: every metric by name with its
// unit and sample count, then the checks.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v comparable=%v: %d/%d operations ok\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Comparable, r.Attempted-r.Failed, r.Attempted)
	for _, group := range []struct {
		prefix  string
		metrics map[string]Metric
	}{{"", r.Metrics}, {"ungated ", r.Ungated}} {
		names := make([]string, 0, len(group.metrics))
		for name := range group.metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group.metrics[name]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf(" (n=%d)", m.N)
			}
			fmt.Fprintf(w, "  %-42s %14.6g %s%s\n", group.prefix+name, m.Value, m.Unit, n)
		}
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-36s %s %s\n", c.Name, verdict, c.Detail)
	}
	if !r.LoadgenValid {
		fmt.Fprintln(w, "  note: the load generator ran more than 1 ms late at p99; see loadgen_lateness_p99_ms")
	}
}

// ReadReports reads the reports in a file of JSON lines as `srcldabench`
// prints them, skipping contract lines and anything else without a workload.
func ReadReports(path string) ([]*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r Report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload != "" {
			out = append(out, &r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no workload reports", path)
	}
	return out, nil
}

// CollectEnv describes the machine and the source tree at root. The commit
// is "unknown" outside a git checkout (the benchmark driver runs in one).
func CollectEnv(root string) Env {
	env := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// ModuleRoot walks up from dir to the directory holding this module's go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), "module sourcelda") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no sourcelda go.mod above the working directory: run srcldabench from inside the repository")
		}
		dir = parent
	}
}
