package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		{[]string{"-threads", "2", "-sweepmode", "sharded"}, false},
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
	if !strings.Contains(stderr, "resumed from checkpoint") {
		t.Fatalf("resume did not report itself:\n%s", stderr)
	}
	if got != want {
		t.Fatalf("resumed run printed\n%s\nuninterrupted run printed\n%s", got, want)
	}
}
