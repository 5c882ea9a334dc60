package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// adminToken is the daemons' admin (and replication) bearer token.
const adminToken = "bench-admin"

// moduleRoot finds the directory holding go.mod, starting at the working
// directory: the checkout root under `go run ./benchmark`, one level up
// under `go test ./benchmark`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/disclosured from the checkout's own source
// into outDir and returns the binary's path. Build time is no metric.
func buildDaemon(root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "disclosured"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/disclosured")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/disclosured: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running child process: a disclosured, or the echo server.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// execAt is when the process was started, the zero point of setup_s and
	// of recovery time.
	execAt time.Time

	mu   sync.Mutex
	logs []string
	// drained is closed once the child's stderr reached EOF.
	drained chan struct{}
}

// children are the child processes now running, so that a signal to the
// benchmark does not leave them behind.
var children struct {
	sync.Mutex
	running map[*daemon]struct{}
}

// track records that d started (running) or ended.
func track(d *daemon, running bool) {
	children.Lock()
	defer children.Unlock()
	if !running {
		delete(children.running, d)
		return
	}
	if children.running == nil {
		children.running = make(map[*daemon]struct{})
	}
	children.running[d] = struct{}{}
}

// killChildrenOnSignal makes SIGINT and SIGTERM kill every child before
// the benchmark exits with a failure.
func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		children.Lock()
		for d := range children.running {
			_ = d.cmd.Process.Kill()
		}
		os.Exit(1)
	}()
}

// startDaemon executes disclosured on an ephemeral loopback port.
func startDaemon(bin string, args ...string) (*daemon, error) {
	return startProcess(exec.Command(bin, append([]string{"-admin-token", adminToken, "-addr", "127.0.0.1:0"}, args...)...))
}

// startProcess starts a server command, with env added to this process's
// environment, and waits for its "serving on" log line to learn the
// address. The child's log is kept in memory (the recovery line is read
// from it).
func startProcess(cmd *exec.Cmd, env ...string) (*daemon, error) {
	bin := cmd.Path
	cmd.Env = append(os.Environ(), env...)
	// The child's standard input is a pipe nobody writes to: it closes when
	// this process ends, however it ends, which is the echo server's cue.
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), execAt: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	track(d, true)
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs = append(d.logs, line)
			d.mu.Unlock()
			if i := strings.Index(line, "serving on "); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len("serving on "):], " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
		return d, nil
	case <-d.drained:
		_ = cmd.Wait()
		track(d, false)
		return nil, fmt.Errorf("%s exited before serving:\n%s", filepath.Base(bin), strings.Join(d.logLines(), "\n"))
	case <-time.After(60 * time.Second):
		_ = d.signal(syscall.SIGKILL)
		return nil, fmt.Errorf("%s did not report its address within 60s", filepath.Base(bin))
	}
}

// logLines returns a copy of the child's log so far.
func (d *daemon) logLines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.logs...)
}

// signal sends sig and waits until the process has ended and its log is
// drained. SIGTERM is the graceful stop, SIGKILL the crash.
func (d *daemon) signal(sig syscall.Signal) error {
	if d == nil || d.cmd.ProcessState != nil {
		return nil
	}
	if err := d.cmd.Process.Signal(sig); err != nil {
		return err
	}
	<-d.drained
	err := d.cmd.Wait()
	track(d, false)
	if _, exited := err.(*exec.ExitError); exited {
		return nil // killed by our own signal, or exit 1 after SIGTERM
	}
	return err
}

// cpu returns the CPU time the process's threads have spent running so
// far, in nanoseconds from /proc/<pid>/task/*/schedstat.
func (d *daemon) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat: the benchmark needs Linux scheduler statistics", d.cmd.Process.Pid)
	}
	var total time.Duration
	for _, task := range tasks {
		raw, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, fmt.Errorf("unexpected schedstat line %q", raw)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected schedstat line %q", raw)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
