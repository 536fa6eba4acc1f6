package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sourcelda"
	"sourcelda/cmd/internal/traincli"
)

// srclda runs the re-exec'd CLI on the tiny corpus to completion and returns
// its stdout, stderr and exit code.
func srclda(t *testing.T, corpusDir, sourceDir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	stderrPath := filepath.Join(t.TempDir(), "stderr.log")
	base := []string{"-corpus", corpusDir, "-source", sourceDir, "-free", "1", "-seed", "7", "-mindocs", "1"}
	cmd := runSrclda(t, stderrPath, append(base, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(stderrPath)
	return out.String(), string(data), cmd.ProcessState.ExitCode()
}

const threadsNote = "note: -threads only bounds sharded sweeps; ignored for a sequential sweep — use -shards N"

// TestThreadsNote: -threads is a resource bound on sharded sweeps. Given
// without them it does nothing, and says so instead of staying silent.
func TestThreadsNote(t *testing.T) {
	corpusDir, sourceDir := writeTinyData(t)
	for _, c := range []struct {
		args []string
		note bool
	}{
		{[]string{"-threads", "2"}, true},
		{[]string{"-threads", "1"}, false},
		{[]string{"-threads", "2", "-shards", "2"}, false},
		{[]string{"-shards", "2"}, false},
	} {
		_, stderr, code := srclda(t, corpusDir, sourceDir, append([]string{"-iters", "3"}, c.args...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", c.args, code, stderr)
		}
		if got := strings.Contains(stderr, threadsNote); got != c.note {
			t.Errorf("%v: note printed = %v, want %v\nstderr:\n%s", c.args, got, c.note, stderr)
		}
	}
}

// TestSamplerFlagRejectsRetiredKernels: the two within-token kernels' names
// stop the run by name before any data is loaded; a typo is merely unknown.
func TestSamplerFlagRejectsRetiredKernels(t *testing.T) {
	corpusDir, sourceDir := writeTinyData(t)
	for name, retired := range map[string]bool{"simple-parallel": true, "prefix-sums": true, "dense": false} {
		stdout, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "3", "-sampler", name)
		if code != 2 || stdout != "" {
			t.Fatalf("-sampler %s: exit %d, stdout %q", name, code, stdout)
		}
		if !strings.Contains(stderr, name) || strings.Contains(stderr, "retired to the Fig. 8(f) experiment") != retired {
			t.Errorf("-sampler %s: stderr %q", name, stderr)
		}
	}
}

// TestResumeUnderDifferentThreads is the crash runbook's promise: a
// sequential run checkpointed at -threads 1 resumes at -threads 4 and prints
// what the uninterrupted run prints. (Before -threads became a pure resource
// bound, > 1 selected another kernel and the resume was refused on its
// chain digest.)
func TestResumeUnderDifferentThreads(t *testing.T) {
	corpusDir, sourceDir := writeTinyData(t)
	ckpts := t.TempDir()
	want, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "40", "-threads", "1")
	if code != 0 || !strings.Contains(want, "tokens)") {
		t.Fatalf("uninterrupted run: exit %d, stdout %q\n%s", code, want, stderr)
	}
	if _, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "20", "-threads", "1",
		"-checkpoint-dir", ckpts, "-checkpoint-every", "20"); code != 0 {
		t.Fatalf("checkpointing run: exit %d\n%s", code, stderr)
	}
	got, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "40", "-threads", "4", "-resume", ckpts)
	if code != 0 {
		t.Fatalf("resume at -threads 4: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming from checkpoint") {
		t.Fatalf("resume did not report itself:\n%s", stderr)
	}
	if got != want {
		t.Fatalf("resumed run printed\n%s\nuninterrupted run printed\n%s", got, want)
	}
}

// TestResumeNamesCheckpointKernel: an explicit -sampler resumes only a
// checkpoint its own kernel wrote, and the refusal names the kernel that did;
// the default -sampler auto resumes on that kernel and prints what the
// uninterrupted run prints.
func TestResumeNamesCheckpointKernel(t *testing.T) {
	corpusDir, sourceDir := writeTinyData(t)
	ckpts := t.TempDir()
	want, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "20", "-sampler", "sparse")
	if code != 0 {
		t.Fatalf("uninterrupted sparse run: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "10", "-sampler", "sparse",
		"-checkpoint-dir", ckpts, "-checkpoint-every", "10"); code != 0 {
		t.Fatalf("checkpointing run: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "20", "-sampler", "serial", "-resume", ckpts); code == 0 ||
		!strings.Contains(stderr, "written under sampler sparse") {
		t.Fatalf("-sampler serial on a sparse checkpoint: exit %d\n%s", code, stderr)
	}
	got, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "20", "-resume", ckpts)
	if code != 0 {
		t.Fatalf("-sampler auto on a sparse checkpoint: exit %d\n%s", code, stderr)
	}
	if got != want {
		t.Fatalf("resumed under auto printed\n%s\nuninterrupted sparse run printed\n%s", got, want)
	}
}

// TestSweepModeFlagRemoved: -shards N is how sharded sweeps are asked for;
// the old spelling fails flag parsing instead of being ignored.
func TestSweepModeFlagRemoved(t *testing.T) {
	corpusDir, sourceDir := writeTinyData(t)
	stdout, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "3", "-sweepmode", "sharded")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -sweepmode") {
		t.Fatalf("-sweepmode: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// bundleDigest reads the chain digest a gzip-JSON bundle was stamped with.
func bundleDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Meta struct {
			ChainDigest string `json:"chain_digest"`
		} `json:"meta"`
	}
	if err := json.NewDecoder(gz).Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Meta.ChainDigest
}

// TestChainFlagDigests runs the binary on the built-in demo corpus and reads
// back the digest it stamped: it is the one sourcelda.CoreOptions gives the
// equivalent façade options (cmd/srcldactl's TestSpecFromFlags pins the same
// values on the spec it ships), the parent build's recorded value wherever
// the parent agreed with the façade, and a function of the flags alone —
// -threads and the CPUs the process may use never reach it.
func TestChainFlagDigests(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		env    string
		pinned string
	}{
		{nil, "", "05fb6d9ed834fea7"},
		{[]string{"-free", "8", "-mu", "0.5", "-sigma", "0.2"}, "", "a0317e4efc2bee55"},
		{[]string{"-lambda", "0.5"}, "", "eb38c0aed1c3047c"}, // the façade's Fixed reading; the parent CLI's was 7b5cad572ae02571
		{[]string{"-sampler", "sparse"}, "", "d6045d647951923a"},
		{[]string{"-shards", "2"}, "", "fe98349ed46232c2"},
		{[]string{"-shards", "2"}, "GOMAXPROCS=1", "fe98349ed46232c2"},
		{[]string{"-shards", "2", "-threads", "1"}, "", "fe98349ed46232c2"},
		{[]string{"-shards", "2", "-threads", "4"}, "GOMAXPROCS=3", "fe98349ed46232c2"},
	} {
		dir := t.TempDir()
		bundle := filepath.Join(dir, "m.bundle")
		cmd := runSrclda(t, filepath.Join(dir, "stderr.log"), append([]string{"-iters", "1", "-save-bundle", bundle}, tc.args...)...)
		if tc.env != "" {
			cmd.Env = append(cmd.Env, tc.env)
		}
		if err := cmd.Run(); err != nil {
			data, _ := os.ReadFile(filepath.Join(dir, "stderr.log"))
			t.Fatalf("%v %s: %v\n%s", tc.args, tc.env, err, data)
		}
		if got := bundleDigest(t, bundle); got != tc.pinned {
			t.Errorf("%v %s: bundle stamped with chain digest %s, want %s", tc.args, tc.env, got, tc.pinned)
		}
	}
}

// TestFacadeCheckpointResumesUnderCLI: fixed λ means one thing. A checkpoint
// sourcelda.Fit wrote under LambdaPrior{Fixed} resumes under srclda -lambda X
// and finishes as the uninterrupted façade fit does. (The parent's CLI trained
// -lambda under g-smoothing with µ, σ hashed in, and refused this checkpoint
// on its chain digest.)
func TestFacadeCheckpointResumesUnderCLI(t *testing.T) {
	corpusDir, sourceDir := writeTinyData(t)
	c, src, err := traincli.LoadData(corpusDir, sourceDir, 7)
	if err != nil {
		t.Fatal(err)
	}
	fc, fk := sourcelda.WrapCorpus(c), sourcelda.WrapKnowledgeSource(src)
	opts := sourcelda.Options{FreeTopics: 1, Seed: 7, Iterations: 40,
		Lambda: &sourcelda.LambdaPrior{Fixed: true, Lambda: 0.5}}
	whole, err := sourcelda.Fit(fc, fk, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sourcelda.SaveModel(&want, whole); err != nil {
		t.Fatal(err)
	}

	ckpts := t.TempDir()
	opts.Iterations = 20
	opts.Checkpoint = &sourcelda.Checkpointing{Dir: ckpts, EverySweeps: 20}
	if _, err := sourcelda.Fit(fc, fk, opts); err != nil {
		t.Fatal(err)
	}
	snapshot := filepath.Join(t.TempDir(), "resumed.json")
	if _, stderr, code := srclda(t, corpusDir, sourceDir, "-iters", "40", "-lambda", "0.5", "-resume", ckpts, "-save", snapshot); code != 0 {
		t.Fatalf("srclda -lambda 0.5 -resume of a façade checkpoint: exit %d\n%s", code, stderr)
	}
	got, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("snapshot after façade checkpoint → srclda -resume differs from the uninterrupted façade fit")
	}
}

// TestCoordinatorCheckpointResumesUnderCLI: the chain flags mean the same
// chain in both commands. A checkpoint srcldactl -save-checkpoint assembled
// is accepted by srclda -resume under the same flags (the digests agree), and
// with one worker the assembled state is the serial chain's: resumed at its
// own sweep count it prints what srclda prints after that many sweeps. Past
// that point the resumed chain is a fresh, reproducible continuation (the
// assembled checkpoint restarts the RNG streams), so only its determinism is
// checked.
func TestCoordinatorCheckpointResumesUnderCLI(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain to build srcldactl with")
	}
	dir := t.TempDir()
	ctl := filepath.Join(dir, "srcldactl")
	if out, err := exec.Command(goBin, "build", "-o", ctl, "sourcelda/cmd/srcldactl").CombinedOutput(); err != nil {
		t.Fatalf("go build srcldactl: %v\n%s", err, out)
	}
	corpusDir, sourceDir := writeTinyData(t)
	chain := []string{"-corpus", corpusDir, "-source", sourceDir, "-free", "1", "-seed", "7", "-sampler", "sparse", "-lambda", "0.5"}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ckpt := filepath.Join(dir, "assembled.ckpt")
	coord := exec.Command(ctl, append([]string{"-role", "coordinator", "-listen", addr, "-workers", "1",
		"-epochs", "20", "-staleness", "1", "-save-checkpoint", ckpt}, chain...)...)
	var coordOut bytes.Buffer
	coord.Stdout, coord.Stderr = &coordOut, &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	// The worker dials once; retry until the coordinator has bound its port.
	var workerOut []byte
	var werr error
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		workerOut, werr = exec.Command(ctl, "-role", "worker", "-corpus", corpusDir, "-source", sourceDir,
			"-connect", addr, "-checkpoint-dir", filepath.Join(dir, "w1")).CombinedOutput()
		if werr == nil || !strings.Contains(string(workerOut), "connection refused") {
			break
		}
	}
	if werr != nil {
		coord.Process.Kill()
	}
	if err := coord.Wait(); err != nil || werr != nil {
		t.Fatalf("cluster failed: coordinator %v, worker %v\n%s\n%s", err, werr, coordOut.String(), workerOut)
	}

	flags := []string{"-sampler", "sparse", "-lambda", "0.5"}
	run := func(args ...string) string {
		t.Helper()
		stdout, stderr, code := srclda(t, corpusDir, sourceDir, append(args, flags...)...)
		if code != 0 {
			t.Fatalf("srclda %v: exit %d\n%s", args, code, stderr)
		}
		return stdout
	}
	if got, want := run("-iters", "20", "-resume", ckpt), run("-iters", "20"); got != want {
		t.Fatalf("1-worker checkpoint at sweep 20 printed\n%s\nserial run of 20 sweeps printed\n%s", got, want)
	}
	if a, b := run("-iters", "40", "-resume", ckpt), run("-iters", "40", "-resume", ckpt); a != b {
		t.Fatalf("continuing the coordinator's checkpoint is not reproducible:\n%s\n%s", a, b)
	}
}
