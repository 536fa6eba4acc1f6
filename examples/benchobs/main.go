// Command benchobs is the observability-overhead gate: it drives the
// serving fast path (Server.ServeHTTP, single-document inference) with the
// tracing middleware on and off, writes the numbers as machine-readable
// JSON, and exits non-zero if observability costs more than the threshold:
//
//	go run ./examples/benchobs -out BENCH_obs.json
//
// The two configurations are measured as back-to-back pairs in alternating
// order and compared by the median of per-pair deltas: machine noise drifts
// over seconds, but within one pair both configurations see the same
// machine, so the per-pair delta isolates the middleware cost and the
// median discards pairs a GC pause or noisy neighbor landed on. A noise
// burst outlasting a whole measurement can still inflate the estimate —
// never deflate it — so the gate takes the best of a few attempts and only
// fails when every attempt exceeds the threshold. CI archives
// BENCH_obs.json per commit so the trend is visible in artifact history.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sourcelda"
	"sourcelda/internal/registry"
)

type report struct {
	IterationsPerBatch int     `json:"iterations_per_batch"`
	Batches            int     `json:"batches"`
	TracingOnNs        int64   `json:"tracing_on_ns_per_request"`
	TracingOffNs       int64   `json:"tracing_off_ns_per_request"`
	OverheadNs         int64   `json:"overhead_ns_per_request"`
	OverheadPct        float64 `json:"overhead_pct"`
	ThresholdPct       float64 `json:"threshold_pct"`
}

func main() {
	out := flag.String("out", "BENCH_obs.json", "file the JSON report is written to")
	iters := flag.Int("iters", 1000, "requests per measurement batch")
	batches := flag.Int("batches", 11, "measurement pairs (median per-pair delta wins)")
	threshold := flag.Float64("threshold", 2.0, "maximum tolerated observability overhead in percent")
	flag.Parse()
	if err := run(*out, *iters, *batches, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "benchobs FAILED:", err)
		os.Exit(1)
	}
}

func run(out string, iters, batches int, threshold float64) error {
	model, err := train()
	if err != nil {
		return err
	}
	newServer := func(disableTracing bool) (*registry.Server, *registry.Registry, error) {
		reg := registry.New(registry.Config{DisableTracing: disableTracing})
		m, err := clone(model)
		if err != nil {
			reg.Close()
			return nil, nil, err
		}
		if _, err := reg.Load(reg.DefaultModel(), "v1", m); err != nil {
			reg.Close()
			return nil, nil, err
		}
		return registry.NewServer(reg), reg, nil
	}
	// A representative document — a few dozen tokens, like real tagging
	// traffic — so the overhead ratio is measured against a realistic
	// request cost, not a degenerate four-word probe.
	payload := []byte(`{"text":"pencil ruler eraser pencil notebook paper baseball umpire pitcher baseball inning glove pencil paper notebook ruler eraser paper glove inning baseball umpire pitcher glove pencil ruler notebook eraser paper pencil"}`)
	batch := func(srv *registry.Server, n int) (int64, error) {
		runtime.GC()
		start := time.Now()
		for i := 0; i < n; i++ {
			req := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				return 0, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		return time.Since(start).Nanoseconds() / int64(n), nil
	}

	// measure builds a fresh pair of servers, warms both, and runs the
	// paired batches. Construction order is a parameter because heap layout
	// follows allocation order and can hand whichever server was built first
	// a persistent percent-level advantage — alternating the order across
	// attempts flips that bias so the best attempt cancels it.
	measure := func(onFirst bool) (offMed, deltaMed int64, err error) {
		var onSrv, offSrv *registry.Server
		var onReg, offReg *registry.Registry
		if onFirst {
			if onSrv, onReg, err = newServer(false); err != nil {
				return 0, 0, err
			}
			if offSrv, offReg, err = newServer(true); err != nil {
				onReg.Close()
				return 0, 0, err
			}
		} else {
			if offSrv, offReg, err = newServer(true); err != nil {
				return 0, 0, err
			}
			if onSrv, onReg, err = newServer(false); err != nil {
				offReg.Close()
				return 0, 0, err
			}
		}
		defer onReg.Close()
		defer offReg.Close()
		// Warm both paths (lazy frozen-view build, allocator steady state)
		// before any measured batch.
		if _, err = batch(onSrv, iters); err != nil {
			return 0, 0, err
		}
		if _, err = batch(offSrv, iters); err != nil {
			return 0, 0, err
		}
		offNs := make([]int64, 0, batches)
		deltas := make([]int64, 0, batches)
		for b := 0; b < batches; b++ {
			// Alternate which configuration runs first so a systematic
			// first-in-pair advantage (cache warmth, timer drift) cancels
			// across pairs instead of biasing every delta the same way.
			var on, off int64
			if b%2 == 0 {
				if on, err = batch(onSrv, iters); err != nil {
					return 0, 0, err
				}
				if off, err = batch(offSrv, iters); err != nil {
					return 0, 0, err
				}
			} else {
				if off, err = batch(offSrv, iters); err != nil {
					return 0, 0, err
				}
				if on, err = batch(onSrv, iters); err != nil {
					return 0, 0, err
				}
			}
			offNs = append(offNs, off)
			deltas = append(deltas, on-off)
		}
		return median(offNs), median(deltas), nil
	}

	const attempts = 3
	r := report{
		IterationsPerBatch: iters,
		Batches:            batches,
		ThresholdPct:       threshold,
	}
	for a := 0; a < attempts; a++ {
		offMed, deltaMed, err := measure(a%2 == 0)
		if err != nil {
			return err
		}
		pct := 100 * float64(deltaMed) / float64(offMed)
		if a == 0 || pct < r.OverheadPct {
			r.TracingOffNs, r.OverheadNs, r.OverheadPct = offMed, deltaMed, pct
		}
		if r.OverheadPct <= threshold {
			break
		}
		fmt.Fprintf(os.Stderr, "benchobs: attempt %d over threshold (%+.2f%%), retrying\n", a+1, pct)
	}
	r.TracingOnNs = r.TracingOffNs + r.OverheadNs

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchobs: tracing off %.1fµs  overhead %+dns %+.2f%% (threshold %.1f%%)  -> %s\n",
		float64(r.TracingOffNs)/1e3, r.OverheadNs, r.OverheadPct, threshold, out)
	if r.OverheadPct > threshold {
		return fmt.Errorf("observability overhead %.2f%% exceeds the %.1f%% threshold", r.OverheadPct, threshold)
	}
	return nil
}

func median(xs []int64) int64 {
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// train fits one small model; clone() round-trips it through a bundle so
// the two registries never share a model instance.
func train() (*sourcelda.Model, error) {
	b := sourcelda.NewCorpusBuilder()
	for i := 0; i < 10; i++ {
		b.AddDocument("school", "pencil ruler eraser pencil notebook paper")
		b.AddDocument("ball", "baseball umpire pitcher baseball inning glove")
	}
	b.AddKnowledgeArticle("School Supplies",
		strings.Repeat("pencil pencil ruler eraser notebook paper paper ", 20))
	b.AddKnowledgeArticle("Baseball",
		strings.Repeat("baseball baseball umpire pitcher inning glove ", 20))
	c, k, err := b.Build()
	if err != nil {
		return nil, err
	}
	return sourcelda.Fit(c, k, sourcelda.Options{
		Lambda:     &sourcelda.LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 60,
		Seed:       1,
	})
}

func clone(m *sourcelda.Model) (*sourcelda.Model, error) {
	var buf bytes.Buffer
	if err := sourcelda.SaveBundle(&buf, m); err != nil {
		return nil, err
	}
	return sourcelda.LoadBundle(&buf)
}
