package server_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/server"
)

// startDurableServer serves a durable System from dir on an ephemeral
// port, returning the base URL and a graceless stop function (the
// listener closes, the Durable handle is simply abandoned — the in-process
// analogue of a crash). It sets the deprecated Journal and the recovered
// Tokens, as callers written before the System kept its tokens do.
func startDurableServer(t *testing.T, dir string) (base string, d *disclosure.Durable, stop func()) {
	t.Helper()
	return serveDurable(t, dir, true)
}

// serveDurable is startDurableServer; unless legacy is set, it passes the
// server nothing but the admin token.
func serveDurable(t *testing.T, dir string, legacy bool) (base string, d *disclosure.Durable, stop func()) {
	t.Helper()
	s := disclosure.MustSchema(disclosure.MustRelation("M", "time", "person"))
	views := []*disclosure.Query{disclosure.MustParse("V1(t, p) :- M(t, p)")}
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	opts := server.Options{AdminToken: "root"}
	if legacy {
		opts.Journal, opts.Tokens = d, d.Tokens()
	}
	srv, err := server.New(d.System(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return "http://" + l.Addr().String(), d, stop
}

// TestServerDurableTokenRecovery checks the serving layer's durability
// integration: tokens installed over HTTP are journaled through
// Options.Journal, recovered via Options.Tokens, and keep authenticating
// after a restart; a removed principal's token stays dead.
func TestServerDurableTokenRecovery(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := startDurableServer(t, dir)
	admin := &server.Client{BaseURL: base, Token: "root"}
	if err := admin.SetPolicy("app", "tok", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatalf("SetPolicy app: %v", err)
	}
	if err := admin.SetPolicy("gone", "gone-tok", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatalf("SetPolicy gone: %v", err)
	}
	if err := admin.RemovePolicy("gone"); err != nil {
		t.Fatalf("RemovePolicy: %v", err)
	}
	if err := admin.Load([]server.LoadRow{{Rel: "M", Values: []string{"10", "Cathy"}}}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	app := &server.Client{BaseURL: base, Token: "tok"}
	if res, err := app.Submit("Q(t) :- M(t, p)"); err != nil || !res.Allowed || len(res.Rows) != 1 {
		t.Fatalf("pre-restart submit: allowed=%v rows=%d err=%v", res.Allowed, len(res.Rows), err)
	}
	stop() // crash: no checkpoint, no Close

	base2, d2, stop2 := startDurableServer(t, dir)
	defer stop2()
	if !d2.Recovered() {
		t.Fatalf("second open did not recover")
	}
	app2 := &server.Client{BaseURL: base2, Token: "tok"}
	if res, err := app2.Submit("Q(t) :- M(t, p)"); err != nil || !res.Allowed || len(res.Rows) != 1 {
		t.Fatalf("post-restart submit with recovered token: allowed=%v rows=%d err=%v", res.Allowed, len(res.Rows), err)
	}
	dead := &server.Client{BaseURL: base2, Token: "gone-tok"}
	if _, err := dead.Submit("Q(t) :- M(t, p)"); err == nil {
		t.Fatalf("removed principal's token still authenticates after recovery")
	}
	admin2 := &server.Client{BaseURL: base2, Token: "root"}
	st2, err := admin2.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st2.Principals != 1 {
		t.Errorf("recovered %d principals, want 1", st2.Principals)
	}
}

// TestServerDurableTokensNeedNoWiring: a server over a durable System is
// given nothing but its admin token, and a token installed over HTTP still
// survives a crash — the System logs its own tokens.
func TestServerDurableTokensNeedNoWiring(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := serveDurable(t, dir, false)
	admin := &server.Client{BaseURL: base, Token: "root"}
	if err := admin.SetPolicy("app", "tok", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	stop() // crash

	base2, d2, stop2 := serveDurable(t, dir, false)
	defer stop2()
	if who, ok := d2.System().TokenOwner("tok"); !ok || who != "app" {
		t.Fatalf("recovered TokenOwner(tok) = (%q, %v), want app", who, ok)
	}
	app := &server.Client{BaseURL: base2, Token: "tok"}
	if res, err := app.Submit("Q(t) :- M(t, p)"); err != nil || !res.Allowed {
		t.Fatalf("post-restart submit with the token = (%+v, %v), want admitted", res, err)
	}
}

// TestRotatedTokenSeesNewPolicy hammers a token before and while a policy
// install hands it out: every decision made for it must be under the
// policy installed with it, never under the one before. Each round
// installs policy "p<i>" (one partition of that name) with token "tok<i>";
// a decision's live partitions name the policy it was decided under. The
// System is durable, so each install spends fsyncs a submitter could
// otherwise slip into.
func TestRotatedTokenSeesNewPolicy(t *testing.T) {
	base, _, stop := serveDurable(t, t.TempDir(), false)
	defer stop()
	admin := &server.Client{BaseURL: base, Token: "root"}
	if err := admin.Load([]server.LoadRow{{Rel: "M", Values: []string{"10", "Cathy"}}}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	const rounds, submitters = 20, 4
	decided := 0
	for i := 1; i <= rounds; i++ {
		name, tok := fmt.Sprintf("p%d", i), fmt.Sprintf("tok%d", i)
		var (
			wg    sync.WaitGroup
			done  = make(chan struct{})
			mu    sync.Mutex
			seen  int
			stale []string
		)
		decisions := func() int {
			mu.Lock()
			defer mu.Unlock()
			return seen
		}
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &server.Client{BaseURL: base, Token: tok}
				for {
					select {
					case <-done:
						return
					default:
					}
					res, err := c.Submit("Q(t) :- M(t, p)")
					if err != nil {
						continue // 401 until the token is installed
					}
					mu.Lock()
					seen++
					if fmt.Sprint(res.Live) != "["+name+"]" {
						stale = append(stale, fmt.Sprintf("allowed=%v live=%v", res.Allowed, res.Live))
					}
					mu.Unlock()
				}
			}()
		}
		err := admin.SetPolicy("app", tok, map[string][]string{name: {"V1"}})
		for deadline := time.Now().Add(10 * time.Second); err == nil && decisions() < submitters && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(done)
		wg.Wait()
		switch {
		case err != nil:
			t.Fatalf("round %d: installing %s: %v", i, tok, err)
		case seen == 0:
			t.Fatalf("round %d: no decision for %s within 10s of its install", i, tok)
		case len(stale) > 0:
			t.Fatalf("round %d: %d decisions for %s were not under policy %s: %v", i, len(stale), tok, name, stale)
		}
		decided += seen
	}
	t.Logf("%d decisions over %d rotations", decided, rounds)
}
