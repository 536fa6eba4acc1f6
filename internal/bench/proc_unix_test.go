//go:build unix

package bench

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// alive reports whether pid names a process that can still run. A killed
// grandchild is reparented to init and stays a zombie until init reaps it;
// that counts as dead.
func alive(pid int) bool {
	if syscall.Kill(pid, 0) != nil {
		return false
	}
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return true // no /proc to ask: trust the signal probe
	}
	// "pid (comm) S ...": the state follows the last parenthesis.
	i := strings.LastIndexByte(string(stat), ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] != 'Z'
}

func TestStopAllKillsProcessGroups(t *testing.T) {
	p := NewProcs(t.TempDir())
	plain, err := p.Start("sleep", "sleep", "60")
	if err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	// A child that forks: the grandchild only dies if the whole group is
	// signalled.
	pidFile := filepath.Join(t.TempDir(), "grandchild.pid")
	forker, err := p.Start("forker", "sh", "-c", "sleep 60 & echo $! > "+pidFile+"; wait")
	if err != nil {
		t.Skipf("no sh binary: %v", err)
	}
	var grandchild int
	for deadline := time.Now().Add(5 * time.Second); grandchild == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if data, err := os.ReadFile(pidFile); err == nil {
			grandchild, _ = strconv.Atoi(strings.TrimSpace(string(data)))
		}
	}
	if grandchild == 0 {
		t.Fatal("the forking child did not report its grandchild")
	}
	p.StopAll()
	p.StopAll() // idempotent
	for _, pid := range []int{plain.Pid(), forker.Pid(), grandchild} {
		if alive(pid) {
			t.Errorf("process %d survived StopAll", pid)
		}
	}
	if !plain.Exited() || !forker.Exited() {
		t.Error("children not reaped")
	}
}

func TestFreeAddrIsLoopback(t *testing.T) {
	a, err := FreeAddr()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) < 11 || a[:10] != "127.0.0.1:" {
		t.Errorf("FreeAddr = %q, want a 127.0.0.1 port", a)
	}
}

// pidsMentioning lists the processes whose command line contains s.
func pidsMentioning(s string) []int {
	var pids []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		if cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline")); err == nil && strings.Contains(string(cmdline), s) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// A run cancelled mid-way (SIGINT reaches Run as a cancelled context) must
// leave no child and no scratch directory behind.
func TestCancelledRunLeavesNothingBehind(t *testing.T) {
	opts := quickOptions(t, "serve_gateway", false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Every child is started with paths under the run's work directory, so
	// its command line names it.
	seen := make(chan []int, 1)
	go func() {
		var pids []int
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if pids = pidsMentioning(opts.WorkDir); len(pids) >= 2 { // the two replicas map a bundle under it
				break
			}
		}
		cancel()
		seen <- pids
	}()
	rep, err := Run(ctx, opts)
	if err == nil {
		t.Fatalf("a cancelled run must fail, got a report: %+v", rep)
	}
	pids := <-seen
	if len(pids) < 2 {
		t.Fatalf("the serving children never came up (saw %v)", pids)
	}
	for _, pid := range pids {
		if alive(pid) {
			t.Errorf("child %d survived the cancelled run", pid)
		}
	}
	if still := pidsMentioning(opts.WorkDir); len(still) != 0 {
		t.Errorf("processes still running out of the work directory: %v", still)
	}
	left, _ := filepath.Glob(filepath.Join(opts.WorkDir, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	if _, err := os.Stat(opts.WorkDir); err != nil {
		t.Errorf("the work directory itself should remain: %v", err)
	}
}

// The tracked peak is the child's own: a small child started from a process
// with a large resident set must not report the parent's, as its rusage does.
func TestPeakRSSIsTheChildsNotTheHarnesss(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc")
	}
	ballast := make([]byte, 256<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1 // resident, not just reserved
	}
	p := NewProcs(t.TempDir())
	defer p.StopAll()
	c, err := p.Start("sleep", "sleep", "0.2")
	if err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	c.TrackPeakRSS()
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ru := float64(c.cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024; ru < 200 {
		t.Logf("rusage reports %.0f MB here: this kernel does not fold the parent in", ru)
	}
	if mb := c.PeakRSSMB(); mb <= 0 || mb > 50 {
		t.Errorf("sleep's peak resident set read %.1f MB beside %d MB of ballast in the parent", mb, len(ballast)>>20)
	}
	_ = ballast[len(ballast)-1]
}
