package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// TestFailoverSIGKILLPromotion is the end-to-end HA failover test: a
// durable primary is killed with SIGKILL while load requests are in
// flight, the promotable follower is promoted over HTTP into decision
// epoch 2, and the promoted node must admit fresh writes while never
// re-admitting the query the dead primary's history refuses. The promoted
// node is then itself killed with SIGKILL and restarted over its data
// directory: the epoch and the refusal must survive recovery.
func TestFailoverSIGKILLPromotion(t *testing.T) {
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

	// ---- Primary + promotable follower (has -data-dir). ----
	prim := startDaemon(t, bin, cfgPath, filepath.Join(scratch, "data"), "-shards", "2")
	primAlive := true
	defer func() {
		if primAlive {
			_ = prim.cmd.Process.Signal(syscall.SIGTERM)
			_ = prim.cmd.Wait()
		}
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

	promoteDir := filepath.Join(scratch, "promoted")
	fol := startArgs(t, bin,
		"-addr", "127.0.0.1:0",
		"-admin-token", "root",
		"-follow", prim.base,
		"-data-dir", promoteDir,
		"-repl-poll", "25ms")
	folAlive := true
	defer func() {
		if folAlive {
			_ = fol.cmd.Process.Signal(syscall.SIGTERM)
			_ = fol.cmd.Wait()
		}
	}()
	waitSynced(t, fol.base)
	st, err := (&server.Client{BaseURL: fol.base, Token: "root"}).FollowerStats()
	if err != nil || st.Follower.Epoch != 1 || st.Follower.Primary == "" {
		t.Fatalf("follower status = %+v (%v), want epoch 1, not promoted", st.Follower, err)
	}

	// The wall goes up on the primary and must replicate before the
	// failure: contacts retires W1, meetings is refused.
	app := &server.Client{BaseURL: prim.base, Token: "tok"}
	if res, err := app.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("contacts query on primary: allowed=%v err=%v, want admitted", res.Allowed, err)
	}
	if res, err := app.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("meetings query on primary: allowed=%v err=%v, want refused", res.Allowed, err)
	}
	folApp := &server.Client{BaseURL: fol.base, Token: "tok"}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if ex, err := folApp.Explain("QM(t) :- M(t, p)"); err == nil && !ex.Admissible {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower did not replicate the wall within 15s")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// ---- SIGKILL the primary under load. ----
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
	time.Sleep(200 * time.Millisecond)
	if err := prim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL primary: %v", err)
	}
	_ = prim.cmd.Wait()
	primAlive = false
	close(stop)
	wg.Wait()
	t.Logf("killed primary with SIGKILL after %d acknowledged loads", acked.Load())

	// ---- Promote the follower over HTTP. ----
	promoteStart := time.Now()
	req, err := http.NewRequest(http.MethodPost, fol.base+"/v1/repl/promote", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer root")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	var pr struct {
		Epoch      uint64 `json:"epoch"`
		Dir        string `json:"dir"`
		AppliedOps uint64 `json:"applied_ops"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("promote = %d (%v), want 200", resp.StatusCode, err)
	}
	if pr.Epoch != 2 || pr.Dir != promoteDir {
		t.Fatalf("promote response = %+v, want epoch 2 into %s", pr, promoteDir)
	}

	// First admitted write on the promoted node — the recovery-time metric
	// the failover benchmark measures.
	res, err := folApp.Submit("QC(p, e) :- C(p, e, r)")
	if err != nil || !res.Allowed {
		t.Fatalf("first post-failover write: allowed=%v err=%v, want admitted", res.Allowed, err)
	}
	t.Logf("first admitted write %s after promotion request", time.Since(promoteStart).Round(time.Millisecond))

	// Never re-admit the pre-failover walled query; stats reports epoch 2.
	if res, err := folApp.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error != "" {
		t.Fatalf("walled query on promoted node = (allowed=%v, error=%q, err=%v), want a clean refusal", res.Allowed, res.Error, err)
	}
	pstats, err := (&server.Client{BaseURL: fol.base, Token: "root"}).Stats()
	if err != nil || pstats.Epoch != 2 {
		t.Fatalf("promoted /v1/stats epoch = %d (%v), want 2", pstats.Epoch, err)
	}

	// ---- SIGKILL the promoted node; epoch and refusal survive replay. ----
	if err := fol.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL promoted node: %v", err)
	}
	_ = fol.cmd.Wait()
	folAlive = false

	reborn := startDaemon(t, bin, cfgPath, promoteDir)
	defer func() {
		_ = reborn.cmd.Process.Signal(syscall.SIGTERM)
		_ = reborn.cmd.Wait()
	}()
	rstats, err := (&server.Client{BaseURL: reborn.base, Token: "root"}).Stats()
	if err != nil || rstats.Epoch != 2 {
		t.Fatalf("recovered epoch = %d (%v), want 2", rstats.Epoch, err)
	}
	rapp := &server.Client{BaseURL: reborn.base, Token: "tok"}
	if res, err := rapp.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error != "" {
		t.Fatalf("recovered promoted node re-admitted the walled query (allowed=%v, error=%q, err=%v)", res.Allowed, res.Error, err)
	}
}
