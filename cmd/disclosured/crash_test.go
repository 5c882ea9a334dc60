package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// crashConfig is the store configuration the crash test deploys: the
// Section-1.1 Meetings/Contacts schema with one full view over each
// relation, suitable for a two-partition Chinese-Wall policy.
const crashConfig = `{
  "schema": [
    {"name": "M", "attrs": ["time", "person"]},
    {"name": "C", "attrs": ["person", "email", "position"]}
  ],
  "views": [
    "V1(t, p) :- M(t, p)",
    "V3(p, e, r) :- C(p, e, r)"
  ]
}`

// daemon is one running disclosured process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches the built binary as a durable primary on an
// ephemeral port and waits for its "serving on" log line to learn the
// address. Extra flags are appended to the base invocation.
func startDaemon(t *testing.T, bin, cfgPath, dataDir string, extra ...string) *daemon {
	t.Helper()
	return startArgs(t, bin, append([]string{
		"-admin-token", "root",
		"-config", cfgPath,
		"-data-dir", dataDir,
		"-addr", "127.0.0.1:0",
	}, extra...)...)
}

// startArgs launches the built binary with the given flags verbatim and
// waits for the "serving on" log line. Both serving modes log it, so this
// starts primaries and followers alike.
func startArgs(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting disclosured: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("disclosured[%d]: %s", cmd.Process.Pid, line)
			if i := strings.Index(line, "serving on "); i >= 0 {
				rest := line[i+len("serving on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, base: "http://" + addr}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("disclosured did not report its address within 30s")
		return nil
	}
}

// TestCrashRecoverySIGKILL is the end-to-end crash-consistency test: a
// durable disclosured is killed with SIGKILL while load requests are in
// flight, restarted over the same data directory, and must come back with
// its rows, policies, submission tokens — and the cumulative-disclosure
// state that makes it refuse the exact query it refused before the crash.
// The cycle runs with -shards 1, the deprecated flag the repository
// benchmark still passes; -shards 2 must not boot at all, since a
// deployment has one data log.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a child process; skipped in -short mode")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "disclosured")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building disclosured: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-admin-token", "root", "-data-dir", filepath.Join(scratch, "data"), "-shards", "2").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-shards accepts only 0 or 1") {
		t.Fatalf("-shards 2 booted (err %v):\n%s", err, out)
	}
	t.Run("shards=1", func(t *testing.T) {
		runCrashRecovery(t, bin, "-shards", "1")
	})
}

// runCrashRecovery is one crash/recover cycle of a daemon started with the
// extra flags.
func runCrashRecovery(t *testing.T, bin string, extra ...string) {
	scratch := t.TempDir()
	cfgPath := filepath.Join(scratch, "deployment.json")
	if err := os.WriteFile(cfgPath, []byte(crashConfig), 0o644); err != nil {
		t.Fatalf("writing config: %v", err)
	}
	dataDir := filepath.Join(scratch, "data")

	// ---- First life: seed state, exercise the Chinese Wall, then die. ----
	p1 := startDaemon(t, bin, cfgPath, dataDir, extra...)
	admin := &server.Client{BaseURL: p1.base, Token: "root"}
	if err := admin.SetPolicy("app", "tok", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy app: %v", err)
	}
	if err := admin.SetPolicy("auditor", "audit-tok", map[string][]string{"all": {"V1", "V3"}}); err != nil {
		t.Fatalf("SetPolicy auditor: %v", err)
	}
	if err := admin.Load([]server.LoadRow{
		{Rel: "M", Values: []string{"10", "Cathy"}},
		{Rel: "C", Values: []string{"Cathy", "c@example.com", "Boss"}},
	}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	app := &server.Client{BaseURL: p1.base, Token: "tok"}
	// Touching Contacts retires partition W1; Meetings is then walled off.
	if res, err := app.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("contacts query: allowed=%v err=%v, want admitted", res.Allowed, err)
	}
	if res, err := app.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("meetings query: allowed=%v err=%v, want refused (Chinese Wall)", res.Allowed, err)
	}

	// Background load pressure: acknowledged rows must survive the kill.
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := server.LoadRow{Rel: "C", Values: []string{
					fmt.Sprintf("P%d-%d", w, i), fmt.Sprintf("p%d-%d@example.com", w, i), "Peer",
				}}
				if err := admin.Load([]server.LoadRow{row}); err != nil {
					return // the kill landed
				}
				acked.Add(1)
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond) // let the load run
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = p1.cmd.Wait()
	close(stop)
	wg.Wait()
	ackedRows := int(acked.Load())
	t.Logf("killed with SIGKILL after %d acknowledged background loads", ackedRows)

	// ---- Second life: recover and verify. ----
	p2 := startDaemon(t, bin, cfgPath, dataDir, extra...)
	defer func() {
		_ = p2.cmd.Process.Signal(syscall.SIGTERM)
		_ = p2.cmd.Wait()
	}()
	app2 := &server.Client{BaseURL: p2.base, Token: "tok"}

	// The acceptance criterion: the recovered monitor refuses the query it
	// refused before the crash — cumulative-disclosure state survived. The
	// old submission token authenticating at all proves tokens survived.
	if res, err := app2.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("recovered monitor: meetings query allowed=%v err=%v, want refused", res.Allowed, err)
	}
	if res, err := app2.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("recovered monitor: contacts query allowed=%v err=%v, want admitted", res.Allowed, err)
	}

	auditor := &server.Client{BaseURL: p2.base, Token: "audit-tok"}
	res, err := auditor.Submit("Rows(p, e, r) :- C(p, e, r)")
	if err != nil || !res.Allowed {
		t.Fatalf("auditor contacts query: allowed=%v err=%v", res.Allowed, err)
	}
	// Every acknowledged load was fsynced before its 200, so at least
	// 1 + ackedRows contact rows must have been recovered (an unacked
	// in-flight batch may add at most a few more).
	if got := len(res.Rows); got < 1+ackedRows {
		t.Errorf("recovered %d contact rows, want at least %d (1 seed + %d acknowledged loads)", got, 1+ackedRows, ackedRows)
	}
	mres, err := auditor.Submit("Rows(t, p) :- M(t, p)")
	if err != nil || !mres.Allowed || len(mres.Rows) != 1 {
		t.Fatalf("auditor meetings query: allowed=%v rows=%v err=%v, want the single seed row", mres.Allowed, mres.Rows, err)
	}
	admin2 := &server.Client{BaseURL: p2.base, Token: "root"}
	st2, err := admin2.Stats()
	if err != nil {
		t.Fatalf("Stats after recovery: %v", err)
	}
	if st2.Principals != 2 {
		t.Errorf("recovered %d principals, want 2", st2.Principals)
	}
}
