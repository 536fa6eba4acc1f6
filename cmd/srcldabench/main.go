// Command srcldabench is the repository's one benchmark: it builds the four
// real binaries from the working tree, generates every input from a seed,
// and runs train → publish → serve → learn on them as child processes over
// loopback, checking their outputs. See internal/bench/README.md.
//
//	go run ./cmd/srcldabench -workload all -seed 1 > base.json
//	go run ./cmd/srcldabench -workload serve_gateway -seed 1 -trace 1 -out traces/
//	go run ./cmd/srcldabench -compare base.json new.json
//
// Standard output carries one JSON report per workload; with a single
// workload the last line is the four-key result object BENCHMARK.json's
// driver reads. Progress and the readable tables go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"sourcelda/internal/bench"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	out      string
	compare  bool
	args     []string
}

func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("srcldabench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&c.seconds, "seconds", bench.RefSeconds, "how long the timed phases of one run measure; phase counts scale with it")
	// An integer, not a bool: the benchmark driver passes `--trace 0` or
	// `--trace 1`, and a boolean flag would stop parsing at the value.
	fs.IntVar(&c.trace, "trace", 0, "1 replays the workload's inputs in-process, layer by layer, and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&c.quick, "quick", false, "about a fiftieth of the work, for smoke tests; results are stamped \"comparable\": false")
	fs.StringVar(&c.out, "out", "", "directory -trace 1 writes trace_<workload>.json into (default: .bench_build)")
	fs.BoolVar(&c.compare, "compare", false, "compare two result files: srcldabench -compare before.json after.json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.args = fs.Args()
	if c.trace != 0 && c.trace != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1, got %d", c.trace)
	}
	if !c.compare && len(c.args) > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", c.args)
	}
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "srcldabench:", err)
		os.Exit(2)
	}
	if c.compare {
		err = runCompare(c.args)
	} else {
		err = run(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "srcldabench:", err)
		os.Exit(1)
	}
}

func moduleRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	return bench.ModuleRoot(cwd)
}

func run(c *config) error {
	// SIGPIPE and SIGHUP too: a reader of our output that goes away must end
	// the run through the same clean-up as Ctrl-C, not kill the process with
	// its children still running.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	specs := bench.Workloads()
	if c.workload != "all" {
		spec, err := bench.WorkloadByName(c.workload)
		if err != nil {
			return err
		}
		specs = []bench.Spec{spec}
	}
	// Build outputs and scratch live in one git-ignored directory of the
	// checkout, so the benchmark writes nowhere else.
	buildDir := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(buildDir, "bin")
	built, err := bench.BuildBinaries(ctx, root, binDir)
	if err != nil {
		return err
	}
	outDir := c.out
	if outDir == "" {
		outDir = buildDir
	}

	env := bench.CollectEnv(root)
	var reports []*bench.Report
	for _, spec := range specs {
		rep, err := bench.Run(ctx, bench.Options{
			Workload: spec.Name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace == 1, Quick: c.quick,
			BinDir: binDir, WorkDir: filepath.Join(buildDir, "work"), OutDir: outDir,
			BuildS: built.Seconds(), Env: env, Log: os.Stderr,
		})
		if err != nil {
			return err
		}
		rep.WriteTable(os.Stderr)
		reports = append(reports, rep)
	}
	return emit(os.Stdout, reports)
}

// emit prints one JSON report per workload and, for a single workload, the
// benchmark contract's four-key result object as the last line. It returns
// an error when any operation failed, so the exit code says so too.
func emit(w io.Writer, reports []*bench.Report) error {
	failed := 0
	for _, rep := range reports {
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
		failed += rep.Failed
	}
	if len(reports) == 1 {
		line, err := reports[0].ContractLine()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed; see the checks above", failed)
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files, before and after")
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	manifest, err := bench.ReadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	before, err := bench.ReadReports(args[0])
	if err != nil {
		return err
	}
	after, err := bench.ReadReports(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("before: %s on %s (%d cpu)\nafter:  %s on %s (%d cpu)\n",
		before[0].Env.Commit, before[0].Env.CPUModel, before[0].Env.NumCPU,
		after[0].Env.Commit, after[0].Env.CPUModel, after[0].Env.NumCPU)
	rows, failedAfter := bench.Compare(manifest, before, after)
	bench.WriteRows(os.Stdout, rows)
	regressed := 0
	for _, r := range rows {
		if r.Verdict == bench.VerdictRegressed {
			regressed++
		}
	}
	switch {
	case failedAfter > 0:
		return fmt.Errorf("%d operations failed in the after runs: any increase of the failed share is a regression", failedAfter)
	case regressed > 0:
		return fmt.Errorf("%d end-to-end metrics regressed", regressed)
	}
	return nil
}
