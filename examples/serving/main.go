// Command serving is a runnable walkthrough of the multi-model serving
// lifecycle (docs/OPERATIONS.md, docs/API.md):
//
//  1. train two models and write them as named, versioned bundles;
//  2. start one serving daemon (the same registry + HTTP stack cmd/srcldad
//     wires) with a watched models directory;
//  3. tag documents against the auto-loaded model;
//  4. hot-swap it to the second build over the admin API while requests
//     are in flight, verifying zero failures and that post-swap responses
//     match the new model;
//  5. scrape /metrics and check the per-model counters add up.
//
// Run it from the repository root:
//
//	go run ./examples/serving
//
// It exits non-zero on any deviation, so CI runs it as a serving smoke
// test alongside the unit suite.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sourcelda"
	"sourcelda/internal/persist"
	"sourcelda/internal/registry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serving example FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("\nserving example PASSED")
}

func run() error {
	// ---- 1. Train two builds of the "stationery vs sports" tagger. ----
	// The second build adds a free topic: a visibly different model (its
	// mixtures are 3 wide, not 2) standing in for "retrained against an
	// updated knowledge source".
	fmt.Println("== training two bundles ==")
	v1, err := train(1, 0)
	if err != nil {
		return err
	}
	v2, err := train(2, 1)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "srclda-serving-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modelsDir := filepath.Join(dir, "models")
	if err := os.Mkdir(modelsDir, 0o755); err != nil {
		return err
	}
	// Atomic drop: write to a temp name, rename into place — the pattern
	// the watcher documentation prescribes.
	if err := writeBundle(filepath.Join(modelsDir, "tagger.bundle"), v1, "tagger", "v1"); err != nil {
		return err
	}
	fmt.Println("wrote", filepath.Join(modelsDir, "tagger.bundle"), "(version v1)")

	// ---- 2. Start the daemon: registry + watcher + HTTP, as srcldad. ----
	reg := registry.New(registry.Config{
		Infer:        sourcelda.InferOptions{Seed: 42},
		DefaultModel: "tagger",
		Logger:       slog.New(slog.NewTextHandler(os.Stdout, nil)),
	})
	defer reg.Close()
	watcher := registry.NewWatcher(reg, modelsDir, 100*time.Millisecond)
	if err := watcher.Scan(); err != nil { // synchronous boot scan
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go watcher.Run(ctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: registry.NewServer(reg)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("daemon serving on", base)

	// ---- 3. Tag documents against the watched-in model. ----
	fmt.Println("\n== tagging against v1 ==")
	texts := []string{
		"pencil ruler notebook eraser",
		"baseball umpire inning glove",
	}
	v1Responses := make(map[string]string)
	for _, text := range texts {
		body, err := infer(base, "tagger", text)
		if err != nil {
			return err
		}
		v1Responses[text] = body
		fmt.Printf("  %-32q → %s\n", text, topLabel(body))
	}

	// ---- 4. Hot-swap to v2 over the admin API, under load. ----
	fmt.Println("\n== hot-swapping to v2 under load ==")
	var wg sync.WaitGroup
	failures := make(chan error, 64)
	requests := 0
	for _, text := range texts {
		for i := 0; i < 8; i++ {
			requests++
			wg.Add(1)
			go func(text string) {
				defer wg.Done()
				if _, err := infer(base, "tagger", text); err != nil {
					failures <- err
				}
			}(text)
		}
	}
	var bundle bytes.Buffer
	if err := sourcelda.SaveBundleNamed(&bundle, v2, "tagger", "v2"); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/models/tagger?version=v2", &bundle)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("swap PUT: %d %s", resp.StatusCode, swapBody)
	}
	fmt.Println("  swap acknowledged:", strings.TrimSpace(string(swapBody)))
	wg.Wait()
	close(failures)
	for err := range failures {
		return fmt.Errorf("request failed during hot swap: %w", err)
	}
	fmt.Printf("  %d concurrent requests across the swap, zero failures\n", requests)

	// Post-swap responses come from v2: distinguishable from v1's.
	for _, text := range texts {
		body, err := infer(base, "tagger", text)
		if err != nil {
			return err
		}
		if body == v1Responses[text] {
			return fmt.Errorf("post-swap response for %q identical to v1's; swap had no effect", text)
		}
		fmt.Printf("  %-32q → %s (v2)\n", text, topLabel(body))
	}
	if err := expectVersion(base, "tagger", "v2"); err != nil {
		return err
	}

	// The watcher picks up a second model dropped next to the first.
	fmt.Println("\n== dropping a second model into the watched dir ==")
	if err := writeBundle(filepath.Join(modelsDir, "sports.bundle"), v1, "sports", "s1"); err != nil {
		return err
	}
	if err := waitFor(base, "sports"); err != nil {
		return err
	}
	fmt.Println("  sports.bundle auto-loaded; one process now serves both models")

	// ---- 5. Scrape /metrics and reconcile the counters. ----
	fmt.Println("\n== scraping /metrics ==")
	metrics, err := scrape(base)
	if err != nil {
		return err
	}
	want := float64(len(texts) + requests + len(texts)) // v1 probes + load + v2 probes
	got := metrics[`srcldad_requests_total{model="tagger",code="200"}`]
	if got != want {
		return fmt.Errorf("tagger 200s = %v, want %v", got, want)
	}
	if swaps := metrics[`srcldad_model_swaps_total{model="tagger"}`]; swaps != 1 {
		return fmt.Errorf("swap counter = %v, want 1", swaps)
	}
	if loaded := metrics[`srcldad_models_loaded`]; loaded != 2 {
		return fmt.Errorf("models loaded = %v, want 2", loaded)
	}
	fmt.Printf("  requests_total{tagger,200} = %.0f (matches the %0.f sent)\n", got, want)
	fmt.Printf("  model_swaps_total{tagger}  = 1, models_loaded = 2\n")
	// Latency is exposed as a fixed-bucket histogram; mean = sum/count.
	sum := metrics[`srcldad_request_latency_seconds_sum{model="tagger"}`]
	count := metrics[`srcldad_request_latency_seconds_count{model="tagger"}`]
	if count != want {
		return fmt.Errorf("latency histogram count = %v, want %v", count, want)
	}
	fmt.Printf("  mean latency               = %.1fms over %.0f requests\n", sum/count*1000, count)
	return nil
}

// train fits one build of the demo model.
func train(seed int64, freeTopics int) (*sourcelda.Model, error) {
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
		FreeTopics: freeTopics,
		Lambda:     &sourcelda.LambdaPrior{Fixed: true, Lambda: 1},
		Iterations: 60,
		Seed:       seed,
	})
}

// writeBundle writes a named bundle atomically into the watched directory.
func writeBundle(path string, m *sourcelda.Model, name, version string) error {
	return persist.WriteFileAtomic(path, func(w io.Writer) error {
		return sourcelda.SaveBundleNamed(w, m, name, version)
	})
}

// infer POSTs one document and returns the raw response body.
func infer(base, model, text string) (string, error) {
	body := fmt.Sprintf(`{"text":%q}`, text)
	resp, err := http.Post(base+"/v1/models/"+model+"/infer", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("infer %q: %d %s", text, resp.StatusCode, data)
	}
	return string(data), nil
}

// topLabel extracts the heaviest topic's label from an infer response.
func topLabel(body string) string {
	var out struct {
		Result struct {
			TopTopics []struct {
				Label  string  `json:"label"`
				Weight float64 `json:"weight"`
			} `json:"top_topics"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || len(out.Result.TopTopics) == 0 {
		return "?"
	}
	t := out.Result.TopTopics[0]
	return fmt.Sprintf("%s (%.2f)", t.Label, t.Weight)
}

// expectVersion asserts the model's active version over the admin API.
func expectVersion(base, model, version string) error {
	resp, err := http.Get(base + "/v1/models/" + model)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var info struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return err
	}
	if info.Version != version {
		return fmt.Errorf("model %s serving version %q, want %q", model, info.Version, version)
	}
	return nil
}

// waitFor polls until the named model is loaded (the watcher's poll
// interval is 100ms, so this resolves quickly).
func waitFor(base, model string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/models/" + model)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("model %s never appeared", model)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// scrape parses /metrics into metric{labels} → value.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err == nil {
			out[key] = f
		}
	}
	return out, nil
}
