package main

import (
	"fmt"
	"io"
	"net/http"
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

// TestFollowerCrashRecoverySIGKILL is the cross-process half of the
// replication fault-injection suite (the in-process partition and lag
// variants live in internal/repl). A follower disclosured is killed with
// SIGKILL while it is streaming the primary's log, the primary's Chinese
// Wall advances in the meantime, and a replacement follower — a fresh
// bootstrap, since followers hold no disk state — must come back serving
// reads and still refuse the query the primary refuses.
func TestFollowerCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills child processes; skipped in -short mode")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "disclosured")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building disclosured: %v\n%s", err, out)
	}
	cfgPath := filepath.Join(scratch, "deployment.json")
	if err := os.WriteFile(cfgPath, []byte(crashConfig), 0o644); err != nil {
		t.Fatalf("writing config: %v", err)
	}

	// ---- Primary: durable, seeded with the Chinese-Wall fixture. ----
	prim := startDaemon(t, bin, cfgPath, filepath.Join(scratch, "data"))
	defer func() {
		_ = prim.cmd.Process.Signal(syscall.SIGTERM)
		_ = prim.cmd.Wait()
	}()
	admin := &server.Client{BaseURL: prim.base, Token: "root"}
	if err := admin.SetPolicy("app", "tok", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := admin.Load([]server.LoadRow{
		{Rel: "M", Values: []string{"10", "Cathy"}},
		{Rel: "C", Values: []string{"Cathy", "c@example.com", "Boss"}},
	}); err != nil {
		t.Fatalf("Load: %v", err)
	}

	// ---- First follower: sync up, then die mid-stream. ----
	fol1 := startArgs(t, bin,
		"-addr", "127.0.0.1:0",
		"-admin-token", "root",
		"-follow", prim.base,
		"-repl-poll", "25ms")
	waitSynced(t, fol1.base)

	// Background load pressure keeps the replication stream busy so the
	// SIGKILL lands mid-stream, not on an idle poll loop.
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
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
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	if err := fol1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL follower: %v", err)
	}
	_ = fol1.cmd.Wait()
	close(stop)
	wg.Wait()
	t.Logf("killed follower with SIGKILL after %d acknowledged background loads", acked.Load())

	// The wall goes up while no follower exists: contacts retires W1,
	// meetings is refused on the primary.
	app := &server.Client{BaseURL: prim.base, Token: "tok"}
	if res, err := app.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("contacts query on primary: allowed=%v err=%v, want admitted", res.Allowed, err)
	}
	if res, err := app.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("meetings query on primary: allowed=%v err=%v, want refused", res.Allowed, err)
	}

	// ---- Restarted follower: fresh bootstrap, full safety. ----
	fol2 := startArgs(t, bin,
		"-addr", "127.0.0.1:0",
		"-admin-token", "root",
		"-follow", prim.base,
		"-repl-poll", "25ms")
	defer func() {
		_ = fol2.cmd.Process.Signal(syscall.SIGTERM)
		_ = fol2.cmd.Wait()
	}()
	waitSynced(t, fol2.base)

	app2 := &server.Client{BaseURL: fol2.base, Token: "tok"}
	if res, err := app2.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error != "" {
		t.Fatalf("restarted follower: meetings query = (allowed=%v, error=%q, err=%v), want a clean refusal", res.Allowed, res.Error, err)
	}
	res, err := app2.Submit("QC(p, e) :- C(p, e, r)")
	if err != nil || !res.Allowed {
		t.Fatalf("restarted follower: contacts query allowed=%v err=%v, want admitted", res.Allowed, err)
	}
	if len(res.Rows) < 1 {
		t.Fatalf("restarted follower evaluated no rows for the admitted query")
	}
	st, err := (&server.Client{BaseURL: fol2.base, Token: "root"}).FollowerStats()
	if err != nil {
		t.Fatalf("FollowerStats: %v", err)
	}
	if !st.Follower.Synced || st.Follower.Primary != prim.base {
		t.Fatalf("follower block = %+v, want synced against %s", st.Follower, prim.base)
	}
}

// TestFollowerReadyAtStart checks that a follower daemon is ready as soon
// as its sync loop's first pass has run, not one poll interval after it
// starts: with an hour between polls and a one-second lag bound, a submit
// is answered with 200 within seconds instead of 503 for the hour.
func TestFollowerReadyAtStart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes; skipped in -short mode")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "disclosured")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building disclosured: %v\n%s", err, out)
	}
	cfgPath := filepath.Join(scratch, "deployment.json")
	if err := os.WriteFile(cfgPath, []byte(crashConfig), 0o644); err != nil {
		t.Fatalf("writing config: %v", err)
	}
	prim := startDaemon(t, bin, cfgPath, filepath.Join(scratch, "data"))
	defer func() {
		_ = prim.cmd.Process.Signal(syscall.SIGTERM)
		_ = prim.cmd.Wait()
	}()
	admin := &server.Client{BaseURL: prim.base, Token: "root"}
	if err := admin.SetPolicy("app", "tok", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}

	fol := startArgs(t, bin,
		"-addr", "127.0.0.1:0",
		"-admin-token", "root",
		"-follow", prim.base,
		"-repl-poll", "1h",
		"-max-lag", "1s")
	defer func() {
		_ = fol.cmd.Process.Signal(syscall.SIGTERM)
		_ = fol.cmd.Wait()
	}()
	submit := func() (int, string) {
		req, err := http.NewRequest(http.MethodPost, fol.base+"/v1/submit", strings.NewReader(`{"query":"QC(p, e) :- C(p, e, r)"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("submit to the follower: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	deadline := time.Now().Add(5 * time.Second)
	status, body := submit()
	for status != http.StatusOK && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		status, body = submit()
	}
	if status != http.StatusOK {
		t.Fatalf("a follower started with -repl-poll 1h -max-lag 1s answered %d (%s) for 5s, want 200 after its first sync pass", status, body)
	}
}

// waitSynced polls a follower's stats until its replica has fully matched
// the primary at least once.
func waitSynced(t *testing.T, base string) {
	t.Helper()
	cl := &server.Client{BaseURL: base, Token: "root"}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.FollowerStats()
		if err == nil && st.Follower.Synced {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("follower %s did not sync within 15s", base)
}
