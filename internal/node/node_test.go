package node

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

// TestCheckLease pins -lease-ttl validation: zero disables the lease, a
// positive TTL needs a replication surface (a -data-dir primary, or a
// follower), and a negative TTL is refused instead of silently dropping
// the split-brain guard.
func TestCheckLease(t *testing.T) {
	for _, tc := range []struct {
		ttl      time.Duration
		follower bool
		dataDir  string
		ok       bool
	}{
		{0, false, "", true},
		{time.Second, false, "/data", true},
		{time.Second, true, "", true},
		{time.Second, false, "", false},
		{-time.Second, false, "/data", false},
		{-time.Second, true, "", false},
	} {
		if err := checkLease(tc.ttl, tc.follower, tc.dataDir); (err == nil) != tc.ok {
			t.Errorf("checkLease(%s, follower=%v, data-dir=%q) = %v, want ok=%v", tc.ttl, tc.follower, tc.dataDir, err, tc.ok)
		}
	}
}

// The metric families ARCHITECTURE.md "Observability" lists, by role: every
// node's, a durable primary's (a promoted follower's too), and a
// follower's (a promoted one keeps them: the registry is the Follower's).
var (
	nodeFamilies = []string{
		"submissions_total", "submit_seconds", "submit_stage_seconds",
		"query_memo_hits_total", "query_memo_misses_total", "query_memo_evictions_total", "query_memo_declined_total",
		"label_cache_hits_total", "label_cache_misses_total", "label_cache_evictions_total", "label_cache_declined_total",
		"plan_cache_hits_total", "plan_cache_misses_total", "plan_cache_evictions_total", "plan_cache_declined_total",
		"label_fold_exhausted_total",
		"principals", "uptime_seconds", "build_info", "engine_answers_total",
		"http_request_seconds", "http_requests_total", "http_response_bytes_total", "http_in_flight",
		"audit_drops_total", "epoch",
	}
	primaryFamilies = []string{
		"durable_decisions_total", "wal_fsync_wait_seconds", "wal_commit_seconds",
		"wal_commit_window_frames", "wal_commit_windows_total", "wal_poisoned_total",
		"checkpoint_seconds", "checkpoint_failures_total", "fenced_rejections_total",
	}
	followerFamilies = []string{
		"follower_staleness_seconds", "follower_applied_ops_total", "follower_resyncs_total",
		"follower_fail_closed_total", "follower_lag_rejections_total",
		"follower_local_refusals_total", "follower_local_admits_total",
		"repl_decide_seconds", "repl_decide_errors_total", "promotions_total",
	}
)

// testDeployment is a two-view deployment seeded with one principal, app
// (token tok), walled between its two views.
func testDeployment() Deployment {
	s := disclosure.MustSchema(
		disclosure.MustRelation("M", "time", "person"),
		disclosure.MustRelation("C", "person", "email", "position"),
	)
	return Deployment{Schema: s, Views: []*disclosure.Query{
		disclosure.MustParse("V1(t, p) :- M(t, p)"),
		disclosure.MustParse("V3(p, e, r) :- C(p, e, r)"),
	}, Seed: func(sys *disclosure.System) error {
		if err := sys.LoadBatch(func(ld *disclosure.Loader) error {
			ld.MustInsert("M", "10", "Cathy")
			ld.MustInsert("C", "Cathy", "c@example.com", "Boss")
			return nil
		}); err != nil {
			return err
		}
		return sys.SetPolicyAndToken("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}, "tok")
	}}
}

// open opens a node, serves its handler, and closes both when the test
// ends.
func open(t *testing.T, cfg Config) (*Node, string) {
	t.Helper()
	n, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := httptest.NewServer(n.Handler())
	t.Cleanup(func() { h.Close(); n.Close() })
	return n, h.URL
}

// request sends one admin-token request to base and returns its status and
// body.
func request(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer admin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// serves submits one query through base and asserts that /metrics then
// exposes every family of every list given.
func serves(t *testing.T, role, base string, lists ...[]string) {
	t.Helper()
	if _, err := (&server.Client{BaseURL: base, Token: "tok"}).Submit("QC(p, e) :- C(p, e, r)"); err != nil {
		t.Fatalf("%s: submit: %v", role, err)
	}
	status, body := request(t, http.MethodGet, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("%s: /metrics = %d: %s", role, status, body)
	}
	for _, families := range lists {
		for _, f := range families {
			if !strings.Contains(body, "# TYPE disclosure_"+f+" ") {
				t.Errorf("%s's /metrics lacks disclosure_%s", role, f)
			}
		}
	}
}

// TestOpenServesRoleFamilies opens a durable primary and a promotable
// follower of it, then promotes the follower: each serves every metric
// family its role has.
func TestOpenServesRoleFamilies(t *testing.T) {
	prim, primURL := open(t, Config{
		Server:     server.Options{AdminToken: "admin"},
		DataDir:    t.TempDir(),
		Deployment: testDeployment(),
	})
	if prim.Follower() != nil || prim.Durable() == nil {
		t.Fatalf("a durable primary reports follower %v, durable %v", prim.Follower(), prim.Durable())
	}
	serves(t, "primary", primURL, nodeFamilies, primaryFamilies)

	fol, folURL := open(t, Config{
		Follow:   repl.FollowerOptions{Primary: primURL, Token: "admin", Interval: time.Hour},
		Follower: server.FollowerOptions{AdminToken: "admin"},
		DataDir:  filepath.Join(t.TempDir(), "promoted"),
	})
	if err := fol.Follower().SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if fol.Durable() != nil {
		t.Fatal("an unpromoted follower reports a durable deployment")
	}
	serves(t, "follower", folURL, nodeFamilies, followerFamilies)

	if status, body := request(t, http.MethodPost, folURL+"/v1/repl/promote"); status != http.StatusOK {
		t.Fatalf("promote = %d: %s", status, body)
	}
	if fol.Durable() == nil {
		t.Fatal("a promoted follower reports no durable deployment")
	}
	serves(t, "promoted follower", folURL, nodeFamilies, primaryFamilies, followerFamilies)
}

// TestPromotedNodeCloseCheckpoints: the node is the one owner of a promoted
// deployment's shutdown. Close takes its checkpoint and closes its log, so
// reopening the directory replays nothing; the server's Shutdown closes no
// deployment, and a second Close does nothing.
func TestPromotedNodeCloseCheckpoints(t *testing.T) {
	_, primURL := open(t, Config{
		Server:     server.Options{AdminToken: "admin"},
		DataDir:    t.TempDir(),
		Deployment: testDeployment(),
	})
	dir := filepath.Join(t.TempDir(), "promoted")
	fol, err := Open(Config{
		Follow:   repl.FollowerOptions{Primary: primURL, Token: "admin", Interval: time.Hour},
		Follower: server.FollowerOptions{AdminToken: "admin"},
		DataDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := httptest.NewUnstartedServer(nil)
	go fol.Serve(l.Listener)
	base := "http://" + l.Listener.Addr().String()
	if err := fol.Follower().SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if status, body := request(t, http.MethodPost, base+"/v1/repl/promote"); status != http.StatusOK {
		t.Fatalf("promote = %d: %s", status, body)
	}
	cl := &server.Client{BaseURL: base, Token: "tok"}
	if res, err := cl.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("submit on the promoted node = (%+v, %v), want admitted", res, err)
	}
	if err := fol.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if res, _, err := fol.Durable().System().Submit("app", disclosure.MustParse("QM(t) :- M(t, p)")); err != nil || res.Allowed {
		t.Fatalf("the promoted deployment after the server's Shutdown = (%+v, %v), want it open and refusing the walled query", res, err)
	}
	if err := fol.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fol.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, nil)
	if err != nil {
		t.Fatalf("reopening the promoted directory: %v", err)
	}
	defer d.Close()
	if n := d.Replayed(); n != 0 {
		t.Fatalf("reopening replayed %d logged operations, want 0: Close took no checkpoint", n)
	}
	if e, err := d.System().ExplainDecision("app", disclosure.MustParse("QM(t) :- M(t, p)")); err != nil || e.Admissible {
		t.Fatalf("reopened session: (%+v, %v), want the wall the promoted node put up", e, err)
	}
}
