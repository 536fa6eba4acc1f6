package bench

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Procs owns every child process of one benchmark run. Each child leads its
// own process group, so StopAll reaches anything a child forks, and StopAll
// is what every exit path (normal, error, cancelled context, panic) runs.
type Procs struct {
	logDir string

	mu       sync.Mutex
	children []*Child
}

// NewProcs returns an empty set whose children log their stderr under logDir.
func NewProcs(logDir string) *Procs { return &Procs{logDir: logDir} }

// Child is one started program.
type Child struct {
	Name    string
	Started time.Time

	cmd     *exec.Cmd
	stdout  bytes.Buffer
	logPath string
	done    chan struct{} // closed once cmd.Wait has returned
	err     error         // cmd.Wait's result, valid after done
	exited  time.Time

	peakMu sync.Mutex
	peakMB float64 // highest VmHWM TrackPeakRSS has seen
}

// Start runs bin with args as a new process group leader. Stdout is kept in
// memory (the training programs print a few lines the checks read); stderr,
// which carries the servers' default per-request access log, goes to a file.
func (p *Procs) Start(name, bin string, args ...string) (*Child, error) {
	logPath := filepath.Join(p.logDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	c := &Child{Name: name, cmd: exec.Command(bin, args...), logPath: logPath, done: make(chan struct{})}
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = logFile
	setProcessGroup(c.cmd)
	c.Started = time.Now()
	if err := c.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		c.exited = time.Now()
		logFile.Close()
		close(c.done)
	}()
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()
	return c, nil
}

// StopAll kills every child's process group and waits for each to be reaped.
// Safe to call more than once and concurrently with Stop.
func (p *Procs) StopAll() {
	p.mu.Lock()
	children := append([]*Child(nil), p.children...)
	p.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, c := range children {
		<-c.done
	}
}

// Pid returns the child's process id.
func (c *Child) Pid() int { return c.cmd.Process.Pid }

// Wait blocks until the child exits or ctx is done, returning the exit error.
func (c *Child) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Exited reports whether the child has been reaped.
func (c *Child) Exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Stop asks the child's group to terminate (SIGTERM, which srcldad and
// srcldagw turn into a drained shutdown), escalates to SIGKILL after three
// seconds, and returns once the child is reaped.
func (c *Child) Stop() {
	if c.Exited() {
		return
	}
	terminateGroup(c.cmd)
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
		c.kill()
		<-c.done
	}
}

func (c *Child) kill() {
	if !c.Exited() {
		killGroup(c.cmd)
	}
}

// Wall is exec to exit; valid after the child has exited.
func (c *Child) Wall() time.Duration { return c.exited.Sub(c.Started) }

// Stdout returns what the child has printed; call it after the child exited.
func (c *Child) Stdout() string { return c.stdout.String() }

// LogTail returns the last n bytes of the child's stderr, for error reports.
func (c *Child) LogTail(n int) string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(data) > n {
		data = data[len(data)-n:]
	}
	return string(data)
}

// TrackPeakRSS samples the child's resident high-water mark (VmHWM) every
// 10 ms until it exits, for PeakRSSMB. The child's rusage cannot serve: at
// exec the kernel folds the high-water mark of the address space the child
// was vforked in — this harness's, which holds every generated input — into
// the child's ru_maxrss, so a trainer smaller than the harness reported the
// harness (the same srclda run read 58, 92 or 99 MB as the request and feed
// inputs grew).
func (c *Child) TrackPeakRSS() {
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := c.statusMB("VmHWM:"); err == nil {
				c.peakMu.Lock()
				c.peakMB = max(c.peakMB, mb)
				c.peakMu.Unlock()
			}
			select {
			case <-c.done:
				return
			case <-tick.C:
			}
		}
	}()
}

// PeakRSSMB is the highest resident set TrackPeakRSS saw; what the child
// grew in its last 10 ms is not in it.
func (c *Child) PeakRSSMB() float64 {
	c.peakMu.Lock()
	defer c.peakMu.Unlock()
	return c.peakMB
}

// RSSMB reads the live child's resident set (VmRSS) from /proc.
func (c *Child) RSSMB() (float64, error) { return c.statusMB("VmRSS:") }

// statusMB reads one kB-valued field of the live child's /proc status.
func (c *Child) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s of %s: %w", field, c.Name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line for %s (pid %d)", field, c.Name, c.Pid())
}

// FreeAddr returns a loopback host:port that was free a moment ago, probed
// by binding port 0. The child binds it again, so a collision is possible
// but has to win a race against the whole ephemeral range.
func FreeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// WaitReady polls url every 2 ms until it answers 200, returning how long
// after the child's exec that was. It fails if the child exits first or ctx
// ends.
func (c *Child) WaitReady(ctx context.Context, client *http.Client, url string) (time.Duration, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.Started), nil
			}
		}
		select {
		case <-c.done:
			return 0, fmt.Errorf("%s exited before it was ready: %v\n%s", c.Name, c.err, c.LogTail(2000))
		case <-ctx.Done():
			return 0, fmt.Errorf("%s not ready: %w", c.Name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}
