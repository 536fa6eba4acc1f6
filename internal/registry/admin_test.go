package registry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sourcelda"
)

func doReq(t *testing.T, method, url string, body []byte) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: status %d, non-JSON body %q", method, url, resp.StatusCode, data)
		}
	}
	return resp.StatusCode, out
}

// TestAdminLifecycle drives the admin API end to end: upload a second
// model, list, infer against it by name, re-upload (hot swap), and unload.
func TestAdminLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	// PUT a new model under a new name → 201.
	alt := trainModel(t, 99)
	code, out := doReq(t, http.MethodPut, ts.URL+"/v1/models/alt?version=a1", bundleBytes(t, alt, "alt", ""))
	if code != http.StatusCreated {
		t.Fatalf("PUT new model: status %d (%v)", code, out)
	}
	if out["model"] != "alt" || out["version"] != "a1" || out["swapped"] != false {
		t.Fatalf("PUT response %v", out)
	}

	// It lists alongside the preloaded default.
	code, out = doReq(t, http.MethodGet, ts.URL+"/v1/models", nil)
	if code != 200 {
		t.Fatalf("list: %d", code)
	}
	models := out["models"].([]any)
	if len(models) != 2 {
		t.Fatalf("%d models listed: %v", len(models), out)
	}
	names := []string{
		models[0].(map[string]any)["name"].(string),
		models[1].(map[string]any)["name"].(string),
	}
	if names[0] != "alt" || names[1] != "default" {
		t.Fatalf("listed %v", names)
	}

	// Named inference works and differs from the default model only in
	// routing, not protocol.
	code, out = postInfer(t, ts.URL+"/v1/models/alt/infer", `{"text":"pencil ruler notebook"}`)
	if code != 200 {
		t.Fatalf("named infer: %d (%v)", code, out)
	}

	// GET one model's info.
	code, out = doReq(t, http.MethodGet, ts.URL+"/v1/models/alt", nil)
	if code != 200 || out["version"] != "a1" || out["topics"].(float64) != 2 {
		t.Fatalf("model info: %d %v", code, out)
	}
	if out["requests"].(float64) != 1 {
		t.Fatalf("model info requests = %v, want 1", out["requests"])
	}

	// Re-PUT the same name → hot swap, 200, previous version reported.
	code, out = doReq(t, http.MethodPut, ts.URL+"/v1/models/alt?version=a2", bundleBytes(t, alt, "alt", ""))
	if code != http.StatusOK {
		t.Fatalf("PUT swap: status %d (%v)", code, out)
	}
	if out["swapped"] != true || out["previous_version"] != "a1" || out["version"] != "a2" {
		t.Fatalf("swap response %v", out)
	}

	// DELETE → unloaded; inference now 404s; double delete 404s.
	code, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/models/alt", nil)
	if code != 200 {
		t.Fatalf("DELETE: %d", code)
	}
	code, _ = postInfer(t, ts.URL+"/v1/models/alt/infer", `{"text":"pencil"}`)
	if code != http.StatusNotFound {
		t.Fatalf("infer after unload: %d", code)
	}
	code, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/models/alt", nil)
	if code != http.StatusNotFound {
		t.Fatalf("double DELETE: %d", code)
	}
}

func TestAdminRejections(t *testing.T) {
	ts, _ := newTestServer(t, Config{AdminMaxBody: 256})

	// Garbage body is not a bundle.
	code, out := doReq(t, http.MethodPut, ts.URL+"/v1/models/x", []byte("not a bundle"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage bundle: %d (%v)", code, out)
	}
	// Bundles over -admin-max-body are refused with 413 (the limit only
	// bites on bytes the loader actually consumes, so it must be below the
	// bundle's true size).
	big := bundleBytes(t, trainModel(t, 5), "", "")
	if len(big) <= 256 {
		t.Fatalf("test bundle only %d bytes; shrink AdminMaxBody", len(big))
	}
	code, _ = doReq(t, http.MethodPut, ts.URL+"/v1/models/x", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized bundle: %d", code)
	}
	// Invalid model names are rejected before anything is loaded. The mux
	// routes one path segment, so test the validator directly too.
	if _, err := New(Config{}).Load("not ok", "", trainModel(t, 5)); err == nil {
		t.Fatal("Load accepted a name with a space")
	}
	if _, err := New(Config{}).Load(".hidden", "", trainModel(t, 5)); err == nil {
		t.Fatal("Load accepted a dot-prefixed name")
	}
	code, _ = doReq(t, http.MethodPut, ts.URL+"/v1/models/bad%20name", bundleBytes(t, trainModel(t, 5), "", ""))
	if code != http.StatusBadRequest {
		t.Fatalf("invalid name over HTTP: %d", code)
	}
}

// TestVersionFallbacks pins the version-resolution order: explicit
// ?version= wins, then the bundle's embedded version, then load-N.
func TestVersionFallbacks(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	m := trainModel(t, 3)

	res, err := reg.Load("a", "explicit", m)
	if err != nil || res.Version != "explicit" {
		t.Fatalf("explicit version: %v %v", res, err)
	}

	loaded, err := sourcelda.LoadBundle(bytes.NewReader(bundleBytes(t, m, "a", "embedded-7")))
	if err != nil {
		t.Fatal(err)
	}
	res, err = reg.Load("a", "", loaded)
	if err != nil || res.Version != "embedded-7" {
		t.Fatalf("embedded version: %v %v", res, err)
	}

	res, err = reg.Load("b", "", m)
	if err != nil || !strings.HasPrefix(res.Version, "load-") {
		t.Fatalf("fallback version: %v %v", res, err)
	}
	if !res.Swapped && res.Name != "b" {
		t.Fatalf("load result %v", res)
	}
}

func TestUnloadedDefaultIs404(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	ts := newHTTPServer(t, reg)
	code, out := postInfer(t, ts+"/v1/infer", `{"text":"pencil"}`)
	if code != http.StatusNotFound {
		t.Fatalf("empty registry infer: %d (%v)", code, out)
	}
	if !strings.Contains(out["error"].(string), "no models loaded") {
		t.Fatalf("message %q", out["error"])
	}
	code, _ = doReq(t, http.MethodGet, ts+"/v1/topics", nil)
	if code != http.StatusNotFound {
		t.Fatalf("empty registry topics: %d", code)
	}
	// Health still answers, reporting zero models.
	code, health := doReq(t, http.MethodGet, ts+"/healthz", nil)
	if code != 200 || health["models"].(float64) != 0 {
		t.Fatalf("health %d %v", code, health)
	}
	if _, ok := health["topics"]; ok {
		t.Fatal("health reported topics with no default model")
	}
}

// TestRegistryCloseFailsPendingCleanly: a closed registry refuses requests
// with an error instead of hanging callers, and Close is idempotent.
func TestRegistryCloseFailsPendingCleanly(t *testing.T) {
	reg := New(Config{})
	if _, err := reg.Load("m", "", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Infer(t.Context(), "m", []string{"pencil ruler"}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if _, err := reg.Infer(t.Context(), "m", []string{"pencil"}); err == nil {
		t.Fatal("Infer on a closed registry succeeded")
	}
	// Idempotent.
	reg.Close()
}

// newHTTPServer serves an already-built registry over httptest, returning
// its base URL. The server closes (draining handlers) before the registry.
func newHTTPServer(t testing.TB, reg *Registry) string {
	t.Helper()
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(ts.Close)
	return ts.URL
}
