package repl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
)

// waitFor polls cond until it holds or the deadline passes — the suite's
// replacement for fixed sleeps, so a loaded CI machine gets the full
// deadline while a fast one moves on within a millisecond.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// This file is the replication fault-injection suite. Every test builds a
// two-node cluster in one process — a durable primary behind its
// replication handler, a diskless follower behind a follower server — with
// a TCP proxy between them so the tests can partition the pair at will.
// The property under test is the design's core safety claim: a follower
// that is lagging, partitioned, freshly restarted, or resyncing after the
// primary pruned its generations can never admit a query the primary's
// complete disclosure history refuses.

// proxy is a blockable TCP forwarder between the follower and the primary.
// Block severs every open connection and refuses new ones — a network
// partition as the follower's HTTP client experiences one.
type proxy struct {
	l      net.Listener
	target string

	mu      sync.Mutex
	blocked bool
	conns   map[net.Conn]struct{}
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &proxy{l: l, target: target, conns: make(map[net.Conn]struct{})}
	go p.accept()
	t.Cleanup(func() {
		l.Close()
		p.setBlocked(true)
	})
	return p
}

func (p *proxy) url() string { return "http://" + p.l.Addr().String() }

func (p *proxy) accept() {
	for {
		down, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.blocked {
			p.mu.Unlock()
			down.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			p.mu.Unlock()
			down.Close()
			continue
		}
		p.conns[down] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		go pipe(down, up)
		go pipe(up, down)
	}
}

func pipe(dst, src net.Conn) {
	_, _ = io.Copy(dst, src)
	dst.Close()
	src.Close()
}

func (p *proxy) setBlocked(blocked bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked = blocked
	if blocked {
		for c := range p.conns {
			c.Close()
		}
		p.conns = make(map[net.Conn]struct{})
	}
}

// cluster is one primary + one follower joined by a proxy. The follower's
// sync loop never runs on its own (Interval is an hour): tests drive
// SyncOnce explicitly, so lag is a controlled input, not a race.
type cluster struct {
	t       *testing.T
	dur     *disclosure.Durable
	prim    *repl.Primary
	primary *httptest.Server
	proxy   *proxy
	fol     *repl.Follower
	folSrv  *server.Server
	folHTTP *httptest.Server
	// reg is the follower's instance registry (sync loop + serving layer).
	reg *obs.Registry

	schema *disclosure.Schema
	views  []*disclosure.Query
	qc, qm *disclosure.Query
}

func newCluster(t *testing.T, folOpts server.FollowerOptions) *cluster {
	t.Helper()
	return newClusterHTTP(t, folOpts, nil)
}

// newClusterHTTP is newCluster with the follower's client to the primary
// given (nil: the follower's own).
func newClusterHTTP(t *testing.T, folOpts server.FollowerOptions, httpc *http.Client) *cluster {
	t.Helper()
	s := disclosure.MustSchema(
		disclosure.MustRelation("M", "time", "person"),
		disclosure.MustRelation("C", "person", "email", "position"),
		// No security view covers S: a query over it labels ⊤.
		disclosure.MustRelation("S", "person", "salary"),
	)
	views := []*disclosure.Query{
		disclosure.MustParse("V1(t, p) :- M(t, p)"),
		disclosure.MustParse("V3(p, e, r) :- C(p, e, r)"),
	}
	d, err := disclosure.OpenDurable(t.TempDir(), disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	sys := d.System()
	if err := sys.LoadBatch(func(ld *disclosure.Loader) error {
		ld.MustInsert("M", "10", "Cathy")
		ld.MustInsert("C", "Cathy", "c@example.com", "Boss")
		return nil
	}); err != nil {
		t.Fatalf("LoadBatch: %v", err)
	}
	if err := sys.SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.LogToken("app", "tok"); err != nil {
		t.Fatalf("LogToken: %v", err)
	}

	prim, err := repl.NewPrimary(d, "admin")
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	primHTTP := httptest.NewServer(prim.Handler())
	t.Cleanup(primHTTP.Close)
	px := newProxy(t, primHTTP.Listener.Addr().String())

	// The sync loop and the serving layer share one instance registry, as
	// the daemon wires them, so /metrics on the follower exposes the
	// staleness gauge next to the HTTP metrics.
	if folOpts.Metrics == nil {
		folOpts.Metrics = obs.NewRegistry()
	}
	fol, err := repl.NewFollower(repl.FollowerOptions{
		Primary:  px.url(),
		Token:    "admin",
		HTTP:     httpc,
		Interval: time.Hour,
		Metrics:  folOpts.Metrics,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	folSrv := server.NewFollower(fol, folOpts)
	folHTTP := httptest.NewServer(folSrv.Handler())
	t.Cleanup(folHTTP.Close)

	return &cluster{
		t:       t,
		dur:     d,
		prim:    prim,
		primary: primHTTP,
		proxy:   px,
		fol:     fol,
		folSrv:  folSrv,
		folHTTP: folHTTP,
		reg:     folOpts.Metrics,
		schema:  s,
		views:   views,
		qc:      disclosure.MustParse("QC(p, e) :- C(p, e, r)"),
		qm:      disclosure.MustParse("QM(t) :- M(t, p)"),
	}
}

func (c *cluster) client(token string) *server.Client {
	return &server.Client{BaseURL: c.folHTTP.URL, Token: token}
}

// sync runs one SyncOnce and fails the test on error.
func (c *cluster) sync() {
	c.t.Helper()
	if err := c.fol.SyncOnce(); err != nil {
		c.t.Fatalf("SyncOnce: %v", err)
	}
}

// wall drives the fixture principal to its Chinese Wall on the primary:
// the contacts query is admitted (retiring W1), after which the meetings
// query is refused. Returns with the primary refusing QM.
func (c *cluster) wall() {
	c.t.Helper()
	sys := c.dur.System()
	if dec, _, err := sys.Submit("app", c.qc); err != nil || !dec.Allowed {
		c.t.Fatalf("contacts query on primary: allowed=%v err=%v, want admitted", dec.Allowed, err)
	}
	if dec, _, err := sys.Submit("app", c.qm); err != nil || dec.Allowed {
		c.t.Fatalf("meetings query on primary: allowed=%v err=%v, want refused", dec.Allowed, err)
	}
}

// sessionsMatch asserts the replica's copy of the principal's security
// state — live partitions and cumulative disclosure — equals the primary's.
// The accepted/refused tallies are soft state that does not ship (decisions
// that change nothing are never logged), so a replica's may lag but never
// lead the primary's.
func (c *cluster) sessionsMatch() {
	c.t.Helper()
	session := func(role string, sys *disclosure.System) (state string, acc, ref int) {
		c.t.Helper()
		live, acc, ref, err := sys.Session("app")
		if err != nil {
			c.t.Fatalf("%s Session: %v", role, err)
		}
		e, err := sys.ExplainDecision("app", c.qm)
		if err != nil {
			c.t.Fatalf("%s ExplainDecision: %v", role, err)
		}
		return fmt.Sprint(live, e.Cumulative), acc, ref
	}
	ps, pa, pr := session("primary", c.dur.System())
	fs, fa, fr := session("replica", c.fol.System())
	if fs != ps || fa > pa || fr > pr {
		c.t.Fatalf("replica session = (%s, %d, %d), primary = (%s, %d, %d)", fs, fa, fr, ps, pa, pr)
	}
}

// TestFollowerNeverReAdmits is the headline safety test: the primary
// refuses the meetings query after the contacts query retired the W1
// partition, and no follower state — lagging, partitioned, or caught up —
// may turn that refusal into an admission.
func TestFollowerNeverReAdmits(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()

	// The follower has not synced since the wall went up: its replica still
	// believes W1 is live, so a locally made decision WOULD admit QM. This
	// is the premise that makes the refusal below meaningful.
	if e, err := c.fol.System().ExplainDecision("app", c.qm); err != nil || !e.Admissible {
		t.Fatalf("stale replica: Admissible=%v err=%v, want true — the lag premise is broken", e.Admissible, err)
	}

	cl := c.client("tok")
	res, err := cl.Submit("QM(t) :- M(t, p)")
	if err != nil {
		t.Fatalf("submit via lagging follower: %v", err)
	}
	if res.Allowed {
		t.Fatal("lagging follower re-admitted a query the primary refused")
	}
	if res.Error != "" {
		t.Fatalf("lagging follower errored instead of refusing: %s", res.Error)
	}
	if res.Refusal == nil {
		t.Fatal("refusal carried no explanation")
	}

	// Partition the pair. The follower must fail the submission closed —
	// an error, never an admission decided from its own stale session.
	c.proxy.setBlocked(true)
	res, err = cl.Submit("QM(t) :- M(t, p)")
	if err != nil {
		t.Fatalf("submit via partitioned follower: %v", err)
	}
	if res.Allowed {
		t.Fatal("partitioned follower admitted a query instead of failing closed")
	}
	if res.Error == "" {
		t.Fatal("partitioned submission reported neither an error nor a refusal from the primary")
	}
	if err := c.fol.SyncOnce(); err == nil {
		t.Fatal("SyncOnce succeeded across a partition")
	}

	// Heal and catch up: the replica now sees the wall itself, the refusal
	// stands, and the two sessions agree.
	c.proxy.setBlocked(false)
	c.sync()
	if e, err := c.fol.System().ExplainDecision("app", c.qm); err != nil || e.Admissible {
		t.Fatalf("caught-up replica: Admissible=%v err=%v, want false", e.Admissible, err)
	}
	c.sessionsMatch()
	res, err = cl.Submit("QM(t) :- M(t, p)")
	if err != nil || res.Allowed || res.Error != "" {
		t.Fatalf("submit via caught-up follower = (allowed=%v, error=%q, err=%v), want a clean refusal", res.Allowed, res.Error, err)
	}
}

// TestFollowerRestartNeverReAdmits is the restart half of the headline
// property: a follower is diskless, so killing it mid-stream and starting
// a new one is a fresh bootstrap from the primary's checkpoints — and the
// newborn follower, synced or not, still refuses what the primary refuses.
// (The cross-process SIGKILL variant of this test lives in
// cmd/disclosured.)
func TestFollowerRestartNeverReAdmits(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()

	// Kill the follower mid-stream: abandon it with its cursors mid-history
	// and bootstrap a replacement, exactly what a restarted process does.
	// Its generation-0 checkpoints predate even the token, so until it
	// syncs, authentication itself fails closed — a 401, not an admission.
	fol2, err := repl.NewFollower(repl.FollowerOptions{
		Primary:  c.proxy.url(),
		Token:    "admin",
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatalf("restarted NewFollower: %v", err)
	}
	folHTTP := httptest.NewServer(server.NewFollower(fol2, server.FollowerOptions{}).Handler())
	defer folHTTP.Close()
	cl := &server.Client{BaseURL: folHTTP.URL, Token: "tok"}
	if _, err := cl.Submit("QM(t) :- M(t, p)"); err == nil {
		t.Fatal("pre-sync restarted follower accepted a token it has not replicated")
	}

	// Restart again after the primary checkpoints: now the bootstrap's
	// checkpoints carry the token and the walled session, and a submission
	// before any log streaming is still decided — and refused — by the
	// primary.
	if err := c.dur.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fol2, err = repl.NewFollower(repl.FollowerOptions{
		Primary:  c.proxy.url(),
		Token:    "admin",
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatalf("post-checkpoint NewFollower: %v", err)
	}
	folHTTP2 := httptest.NewServer(server.NewFollower(fol2, server.FollowerOptions{}).Handler())
	defer folHTTP2.Close()
	cl = &server.Client{BaseURL: folHTTP2.URL, Token: "tok"}
	res, err := cl.Submit("QM(t) :- M(t, p)")
	if err != nil {
		t.Fatalf("submit via restarted follower: %v", err)
	}
	if res.Allowed {
		t.Fatal("restarted follower re-admitted a query the primary refused")
	}

	if err := fol2.SyncOnce(); err != nil {
		t.Fatalf("restarted SyncOnce: %v", err)
	}
	res, err = cl.Submit("QM(t) :- M(t, p)")
	if err != nil || res.Allowed || res.Error != "" {
		t.Fatalf("submit after restart+sync = (allowed=%v, error=%q, err=%v), want a clean refusal", res.Allowed, res.Error, err)
	}
}

// TestFollowerResyncsAfterPrunedGenerations covers deep lag: the primary
// checkpoints twice while the follower stalls, pruning the generation the
// follower's cursors point into. The next sync must detect the gap, resync
// from fresh checkpoints, and land on a replica that refuses the walled
// query — never skip ahead silently or spin.
func TestFollowerResyncsAfterPrunedGenerations(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()

	// Two rotations prune generation 0 — the generation every follower
	// cursor still points into (rotateShardLocked keeps only the last two).
	if err := c.dur.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	if err := c.dur.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}

	c.sync() // detects the pruned generation and resyncs internally
	if got := c.fol.Resyncs(); got == 0 {
		t.Fatal("pruned generations did not trigger a resync")
	}
	if e, err := c.fol.System().ExplainDecision("app", c.qm); err != nil || e.Admissible {
		t.Fatalf("resynced replica: Admissible=%v err=%v, want false", e.Admissible, err)
	}

	// The resynced follower tracks the primary cleanly from here: another
	// wall advance replicates without further resyncs.
	before := c.fol.Resyncs()
	if dec, _, err := c.dur.System().Submit("app", c.qm); err != nil || dec.Allowed {
		t.Fatalf("post-resync primary submit: allowed=%v err=%v", dec.Allowed, err)
	}
	c.sync()
	if got := c.fol.Resyncs(); got != before {
		t.Fatalf("clean catch-up resynced again (%d -> %d)", before, got)
	}
	c.sessionsMatch()

	res, err := c.client("tok").Submit("QM(t) :- M(t, p)")
	if err != nil || res.Allowed {
		t.Fatalf("submit via resynced follower = (allowed=%v, err=%v), want refusal", res.Allowed, err)
	}
}

// TestFollowerCrossesSealedGenerations checks ordinary log shipping across
// a rotation: a checkpoint seals the generation the follower is tailing,
// and the follower must finish the sealed segment, hop to the next
// generation, and converge — without treating the seal as divergence.
func TestFollowerCrossesSealedGenerations(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()

	if dec, _, err := c.dur.System().Submit("app", c.qc); err != nil || !dec.Allowed {
		t.Fatalf("pre-rotation submit: allowed=%v err=%v", dec.Allowed, err)
	}
	if err := c.dur.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if dec, _, err := c.dur.System().Submit("app", c.qm); err != nil || dec.Allowed {
		t.Fatalf("post-rotation submit: allowed=%v err=%v", dec.Allowed, err)
	}

	c.sync()
	if got := c.fol.Resyncs(); got != 0 {
		t.Fatalf("crossing a sealed generation resynced %d times, want streaming continuation", got)
	}
	c.sessionsMatch()
	if c.fol.Applied() == 0 {
		t.Fatal("follower applied no operations while crossing generations")
	}
}

// TestFollowerStalenessGate covers the -max-lag contract: data endpoints
// declare staleness in X-Disclosure-Staleness and return 503 once it
// exceeds the bound (or before the first sync); stats is never gated,
// because it is how an operator watches the lag.
func TestFollowerStalenessGate(t *testing.T) {
	const maxLag = 40 * time.Millisecond
	c := newCluster(t, server.FollowerOptions{MaxLag: maxLag})

	get := func(path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, c.folHTTP.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	explain := "/v1/explain?q=" + "QM(t)%20:-%20M(t,%20p)"

	// Never synced: gated endpoints refuse and say why in the header.
	resp := get(explain)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explain before first sync = %s, want 503", resp.Status)
	}
	if h := resp.Header.Get(server.StalenessHeader); h != "unsynced" {
		t.Fatalf("staleness header before first sync = %q, want \"unsynced\"", h)
	}

	c.sync()
	resp = get(explain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain after sync = %s, want 200", resp.Status)
	}
	if age, err := strconv.ParseFloat(resp.Header.Get(server.StalenessHeader), 64); err != nil || age < 0 {
		t.Fatalf("staleness header after sync = %q (%v), want a non-negative decimal", resp.Header.Get(server.StalenessHeader), err)
	}

	// Let the replica go stale past the bound: gated endpoints 503, stats
	// still serves and reports the lag.
	waitFor(t, 10*time.Second, "replica staleness to exceed max-lag", func() bool {
		age, ok := c.fol.Staleness()
		return ok && age > maxLag
	})
	if resp = get(explain); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explain past max-lag = %s, want 503", resp.Status)
	}
	st, err := c.client("tok").FollowerStats()
	if err != nil {
		t.Fatalf("FollowerStats past max-lag: %v", err)
	}
	if !st.Follower.Synced || st.Follower.StalenessSeconds < maxLag.Seconds() {
		t.Fatalf("stats follower block = %+v, want synced with staleness past the bound", st.Follower)
	}
	if st.Follower.Primary != c.proxy.url() {
		t.Fatalf("stats primary = %q, want %q", st.Follower.Primary, c.proxy.url())
	}

	c.sync()
	if resp = get(explain); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain after re-sync = %s, want 200", resp.Status)
	}
}

// TestFollowerServesReadsAndCounts checks the follower's serving surface:
// admitted queries evaluate on the replica and return rows, administrative
// endpoints are refused outright, and the node-local stats identity
// (queries = admitted + refused + errored) holds with delegated decisions —
// which count on the primary too — and with replica-decided refusals, which
// do not.
func TestFollowerServesReadsAndCounts(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	cl := c.client("tok")

	res, err := cl.Submit("QC(p, e) :- C(p, e, r)")
	if err != nil {
		t.Fatalf("admitted submit via follower: %v", err)
	}
	if !res.Allowed || res.Error != "" {
		t.Fatalf("contacts query via follower = (allowed=%v, error=%q), want admitted", res.Allowed, res.Error)
	}
	if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != fmt.Sprint([]string{"Cathy", "c@example.com"}) {
		t.Fatalf("rows evaluated on the replica = %v, want [[Cathy c@example.com]]", res.Rows)
	}

	if res, err = cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("walled query via follower = (allowed=%v, err=%v), want refusal", res.Allowed, err)
	}

	c.proxy.setBlocked(true)
	if res, err = cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error == "" {
		t.Fatalf("partitioned submit = (allowed=%v, error=%q, err=%v), want a closed failure", res.Allowed, res.Error, err)
	}
	c.proxy.setBlocked(false)

	st, err := cl.FollowerStats()
	if err != nil {
		t.Fatalf("FollowerStats: %v", err)
	}
	if st.Queries != 3 || st.Admitted != 1 || st.Refused != 1 || st.Errored != 1 {
		t.Fatalf("follower counters = %d/%d/%d/%d (q/a/r/e), want 3/1/1/1", st.Queries, st.Admitted, st.Refused, st.Errored)
	}
	if st.Queries != st.Admitted+st.Refused+st.Errored {
		t.Fatalf("stats identity broken: %d != %d+%d+%d", st.Queries, st.Admitted, st.Refused, st.Errored)
	}
	if st.Principals != 1 {
		t.Fatalf("replicated principals = %d, want 1", st.Principals)
	}
	// Both decisions that reached the primary were delegated, and count
	// there too; the partitioned one never arrived.
	if ps := c.dur.System().Stats(); ps.Queries != 2 || ps.Admitted != 1 || ps.Refused != 1 || ps.Errored != 0 {
		t.Fatalf("primary counters = %d/%d/%d/%d (q/a/r/e), want 2/1/1/0", ps.Queries, ps.Admitted, ps.Refused, ps.Errored)
	}
	if st.Follower.LocalRefusals != 0 {
		t.Fatalf("local refusals = %d, want 0: the lagging replica's session admits QM", st.Follower.LocalRefusals)
	}

	// Caught up, the replica's own session refuses QM: the follower says so
	// itself and counts it; the primary's counters do not move.
	c.sync()
	if res, err = cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error != "" || res.Refusal == nil {
		t.Fatalf("walled query via caught-up follower = (%+v, %v), want a refusal with a body", res, err)
	}
	if st, err = cl.FollowerStats(); err != nil || st.Queries != 4 || st.Refused != 2 || st.Follower.LocalRefusals != 1 {
		t.Fatalf("follower stats after a replica-decided refusal = %+v (err=%v), want 4 queries, 2 refused, 1 local", st, err)
	}
	if ps := c.dur.System().Stats(); ps.Queries != 2 || ps.Refused != 1 {
		t.Fatalf("primary counters after a replica-decided refusal = %d queries, %d refused, want 2 and 1", ps.Queries, ps.Refused)
	}

	// Administrative and write endpoints belong to the primary.
	if err := cl.SetPolicy("other", "t2", map[string][]string{"W": {"V1"}}); err == nil {
		t.Fatal("follower accepted a policy installation")
	}
	if err := cl.Load([]server.LoadRow{{Rel: "M", Values: []string{"11", "Dave"}}}); err == nil {
		t.Fatal("follower accepted a bulk load")
	}
}

// scrapeFollower GETs the follower's /metrics and returns the exposition
// body.
func scrapeFollower(t *testing.T, c *cluster, token string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.folHTTP.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("scrape content type = %q, want %q", ct, obs.ExpositionContentType)
	}
	return string(body)
}

// gaugeValue extracts an unlabeled sample value from an exposition body.
func gaugeValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, found := strings.CutPrefix(line, name+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparsable %s value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("exposition has no %s sample:\n%s", name, body)
	return 0
}

// TestFollowerMetricsEndpoint checks the follower's /metrics surface: the
// same exposition the primary serves, including the replication gauges —
// and the staleness gauge demonstrably rises while the blockable proxy
// partitions the pair, while fail-closed submissions land in their
// counter.
func TestFollowerMetricsEndpoint(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()

	body := scrapeFollower(t, c, "")
	for _, family := range []string{
		"# TYPE disclosure_follower_staleness_seconds gauge",
		"# TYPE disclosure_follower_applied_ops_total counter",
		"# TYPE disclosure_follower_resyncs_total counter",
		"# TYPE disclosure_repl_decide_seconds histogram",
		"# TYPE disclosure_follower_fail_closed_total counter",
		"# TYPE disclosure_build_info gauge",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("follower exposition missing %q", family)
		}
	}
	s1 := gaugeValue(t, body, "disclosure_follower_staleness_seconds")
	if s1 < 0 {
		t.Fatalf("staleness after sync = %v, want >= 0 (synced)", s1)
	}

	// Partition the pair. The follower cannot sync, so staleness must
	// keep rising; a submission fails closed and lands in the counter.
	c.proxy.setBlocked(true)
	// (Well past: the post-heal scrape below has to land under it, and a
	// sync plus a scrape take a few milliseconds on a loaded machine.)
	waitFor(t, 10*time.Second, "staleness to rise well past the first scrape", func() bool {
		age, ok := c.fol.Staleness()
		return ok && age.Seconds() > s1+0.1
	})
	if err := c.fol.SyncOnce(); err == nil {
		t.Fatal("SyncOnce through a blocked proxy succeeded")
	}
	if res, err := c.client("tok").Submit("QM(t) :- M(t, p)"); err != nil || res.Error == "" {
		t.Fatalf("partitioned submit = (error=%q, err=%v), want a closed failure", res.Error, err)
	}
	body = scrapeFollower(t, c, "")
	s2 := gaugeValue(t, body, "disclosure_follower_staleness_seconds")
	if s2 <= s1 {
		t.Fatalf("staleness under partition = %v, want > %v (it must rise)", s2, s1)
	}
	if v := gaugeValue(t, body, "disclosure_follower_fail_closed_total"); v < 1 {
		t.Fatalf("fail-closed counter = %v, want >= 1", v)
	}
	// HTTP middleware families register on a route's first completed
	// request, so they appear from the second scrape on.
	if !strings.Contains(body, "# TYPE disclosure_http_request_seconds histogram") {
		t.Error("follower exposition missing the HTTP latency histogram")
	}
	c.proxy.setBlocked(false)

	// After a successful sync the gauge drops back toward zero.
	c.sync()
	s3 := gaugeValue(t, scrapeFollower(t, c, ""), "disclosure_follower_staleness_seconds")
	if s3 >= s2 {
		t.Fatalf("staleness after resync = %v, want < %v", s3, s2)
	}
}

// TestFollowerMetricsToken checks that a configured admin token gates
// the follower's /metrics endpoint.
func TestFollowerMetricsToken(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{AdminToken: "scrape"})
	c.sync()
	resp, err := http.Get(c.folHTTP.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated scrape status = %d, want 401", resp.StatusCode)
	}
	if body := scrapeFollower(t, c, "scrape"); !strings.Contains(body, "disclosure_follower_staleness_seconds") {
		t.Fatal("authenticated scrape is missing the staleness gauge")
	}
}

// TestAdminTokenRejections probes the four places the admin/replication
// token is checked — the primary's replication surface, and /metrics,
// promotion and the administrative routes of the serving layer — with the
// near misses a comparison could get wrong: an equal-length token, a
// proper prefix, the token plus a byte, and no Authorization header.
func TestAdminTokenRejections(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{AdminToken: "admin", PromoteDir: filepath.Join(t.TempDir(), "promoted")})
	c.sync()
	status := func(method, url, token string) int {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	tails := c.primary.URL + "/v1/repl/tails"
	metrics := c.folHTTP.URL + "/metrics"
	promote := c.folHTTP.URL + "/v1/repl/promote"
	admin := c.folHTTP.URL + "/v1/policy/nobody"
	bad := []string{"admiN", "adm", "admin1", ""}
	for _, tok := range bad {
		for _, probe := range []struct{ method, url string }{
			{http.MethodGet, tails}, {http.MethodGet, metrics}, {http.MethodPost, promote},
		} {
			if got := status(probe.method, probe.url, tok); got != http.StatusUnauthorized {
				t.Errorf("%s %s with token %q = %d, want 401", probe.method, probe.url, tok, got)
			}
		}
	}
	// A follower is never written to, whatever the credential.
	for _, tok := range append(bad, "admin") {
		if got := status(http.MethodDelete, admin, tok); got != http.StatusForbidden {
			t.Errorf("DELETE policy on a follower with token %q = %d, want 403", tok, got)
		}
	}
	// The right token passes all three, and the promoted node's
	// administrative routes then check it the same way.
	if got := status(http.MethodGet, tails, "admin"); got != http.StatusOK {
		t.Fatalf("tails with the replication token = %d, want 200", got)
	}
	if got := status(http.MethodGet, metrics, "admin"); got != http.StatusOK {
		t.Fatalf("metrics with the admin token = %d, want 200", got)
	}
	c.mustPromote()
	for _, tok := range bad {
		if got := status(http.MethodDelete, admin, tok); got != http.StatusUnauthorized {
			t.Errorf("DELETE policy on the promoted node with token %q = %d, want 401", tok, got)
		}
	}
	if got := status(http.MethodDelete, admin, "admin"); got == http.StatusUnauthorized || got == http.StatusForbidden {
		t.Fatalf("DELETE policy on the promoted node with the admin token = %d, want it authenticated", got)
	}
}

// TestFollowerLagGateMetric checks that 503 lag-gate rejections land in
// the lag-rejections counter.
func TestFollowerLagGateMetric(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{MaxLag: time.Nanosecond})
	c.sync()
	waitFor(t, 10*time.Second, "any nonzero staleness (exceeds the 1ns bound)", func() bool {
		age, ok := c.fol.Staleness()
		return ok && age > time.Nanosecond
	})
	if res, err := c.client("tok").Submit("QM(t) :- M(t, p)"); err == nil {
		t.Fatalf("lag-gated submit succeeded: %+v", res)
	}
	body := scrapeFollower(t, c, "")
	if v := gaugeValue(t, body, "disclosure_follower_lag_rejections_total"); v < 1 {
		t.Fatalf("lag-rejections counter = %v, want >= 1", v)
	}
}

// ---------------------------------------------------------------------------
// Failover: fenced follower promotion and the split-brain suite.
// ---------------------------------------------------------------------------

// replError mirrors the wire shape of replication and serving error bodies
// (repl.errorResponse / server.ErrorResponse) for assertions on structured
// 409s.
type replError struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	Epoch        uint64 `json:"epoch"`
	RequestEpoch uint64 `json:"request_epoch"`
	FencedBy     uint64 `json:"fenced_by"`
}

// promote POSTs the follower's promotion endpoint with the given bearer
// token and returns the raw status and body.
func (c *cluster) promote(token string) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.folHTTP.URL+"/v1/repl/promote", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("promote: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, body
}

// mustPromote promotes with the admin token and decodes the success body.
func (c *cluster) mustPromote() repl.PromoteResponse {
	c.t.Helper()
	status, body := c.promote("admin")
	if status != http.StatusOK {
		c.t.Fatalf("promote status = %d, want 200: %s", status, body)
	}
	var pr repl.PromoteResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		c.t.Fatalf("promote body %q: %v", body, err)
	}
	return pr
}

// replGet issues an authenticated GET against a replication surface,
// optionally stamped with a decision epoch, and returns the status, the
// epoch the node declared in its response header, and the decoded error
// body (zero on 2xx).
func replGet(t *testing.T, base, path, token string, epoch uint64) (int, string, replError) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if epoch != 0 {
		req.Header.Set(repl.HeaderEpoch, strconv.FormatUint(epoch, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var e replError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, resp.Header.Get(repl.HeaderEpoch), e
}

// postJSON POSTs a JSON body with a bearer token and optional epoch
// header, returning the status and decoded error body (zero on 2xx).
func postJSON(t *testing.T, url, token string, epoch uint64, body any) (int, replError) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if epoch != 0 {
		req.Header.Set(repl.HeaderEpoch, strconv.FormatUint(epoch, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var e replError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// TestSplitBrainPromotion is the headline failover test: the primary is
// partitioned away under an established Chinese Wall, the follower is
// promoted into decision epoch 2, and both halves of the split brain are
// then probed — the promoted node must keep refusing the pre-failover
// walled query while admitting fresh writes locally, and the old primary
// must be fenced by the first message carrying the successor epoch, after
// which every decision path on it answers a structured 409.
func TestSplitBrainPromotion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "promoted")
	c := newCluster(t, server.FollowerOptions{AdminToken: "admin", PromoteDir: dir})
	c.sync()
	c.wall()
	c.sync()
	c.sessionsMatch()

	// Partition: from here on the follower cannot reach the old primary.
	c.proxy.setBlocked(true)

	// Promotion is an administrative action: wrong or missing credentials
	// never flip a node's role.
	if status, _ := c.promote("tok"); status != http.StatusUnauthorized {
		t.Fatalf("promote with a principal token = %d, want 401", status)
	}
	if status, _ := c.promote(""); status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated promote = %d, want 401", status)
	}

	pr := c.mustPromote()
	if pr.Epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2 (successor of the seed epoch 1)", pr.Epoch)
	}
	if pr.Dir != dir {
		t.Fatalf("promoted dir = %q, want %q", pr.Dir, dir)
	}
	if pr.AppliedOps == 0 {
		t.Fatal("promotion drained zero ops from a synced replica")
	}
	if got := c.fol.Epoch(); got != 2 {
		t.Fatalf("follower epoch after promotion = %d, want 2", got)
	}

	// The promoted node decides locally: with the old primary unreachable,
	// the pre-failover walled query is still refused — never re-admitted —
	// and a fresh allowed query is admitted (the first post-failover
	// write).
	cl := c.client("tok")
	res, err := cl.Submit("QM(t) :- M(t, p)")
	if err != nil || res.Allowed || res.Error != "" {
		t.Fatalf("walled query on promoted node = (allowed=%v, error=%q, err=%v), want a clean local refusal", res.Allowed, res.Error, err)
	}
	res, err = cl.Submit("QC(p, e) :- C(p, e, r)")
	if err != nil || !res.Allowed {
		t.Fatalf("allowed query on promoted node = (allowed=%v, err=%v), want admitted", res.Allowed, err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats on promoted node: %v", err)
	}
	if st.Epoch != 2 {
		t.Fatalf("promoted /v1/stats epoch = %d, want 2", st.Epoch)
	}

	// Re-promotion conflicts: the node already decides under epoch 2.
	status, body := c.promote("admin")
	if status != http.StatusConflict {
		t.Fatalf("double promote = %d, want 409: %s", status, body)
	}
	var e replError
	if err := json.Unmarshal(body, &e); err != nil || e.Code != repl.CodeAlreadyPromoted || e.Epoch != 2 {
		t.Fatalf("double promote body = %+v (%v), want code %q epoch 2", e, err, repl.CodeAlreadyPromoted)
	}

	// The old primary still believes it is epoch 1 and declares as much.
	if status, hdr, _ := replGet(t, c.primary.URL, "/v1/repl/tails", "admin", 0); status != http.StatusOK || hdr != "1" {
		t.Fatalf("pre-fencing tails on old primary = (%d, epoch %q), want (200, \"1\")", status, hdr)
	}

	// First contact from the new epoch fences it: a decision RPC stamped
	// with epoch 2 is refused with a structured 409 and the old primary
	// durably records that it has been superseded.
	status, e = postJSON(t, c.primary.URL+"/v1/repl/decide", "admin", 2, repl.DecideRequest{
		Principal: "app", Query: "QC(p, e) :- C(p, e, r)", Epoch: 2,
	})
	if status != http.StatusConflict || e.Code != repl.CodeStaleEpoch {
		t.Fatalf("epoch-2 decide at old primary = (%d, %+v), want 409 %q", status, e, repl.CodeStaleEpoch)
	}
	if e.Epoch != 1 || e.RequestEpoch != 2 {
		t.Fatalf("fencing 409 epochs = (node %d, request %d), want (1, 2)", e.Epoch, e.RequestEpoch)
	}
	if got := c.dur.FencedBy(); got != 2 {
		t.Fatalf("old primary FencedBy = %d, want 2", got)
	}

	// Fenced means fenced everywhere. Local decisions on the old primary
	// fail with ErrFenced; its replication surface answers 409s; and the
	// serving layer's submit endpoint reports the structured conflict.
	if _, _, err := c.dur.System().Submit("app", c.qc); !errors.Is(err, disclosure.ErrFenced) {
		t.Fatalf("local submit on fenced primary: %v, want ErrFenced", err)
	}
	status, hdr, e := replGet(t, c.primary.URL, "/v1/repl/tails", "admin", 0)
	if status != http.StatusConflict || e.Code != repl.CodeFenced || e.FencedBy != 2 {
		t.Fatalf("tails on fenced primary = (%d, %+v), want 409 %q fenced by 2", status, e, repl.CodeFenced)
	}
	if hdr != "1" {
		t.Fatalf("fenced primary epoch header = %q, want \"1\"", hdr)
	}
	if got := c.prim.FencedRejections(); got < 2 {
		t.Fatalf("fenced-rejection counter = %d, want >= 2", got)
	}
	oldSrv, err := server.New(c.dur.System(), server.Options{
		AdminToken: "admin",
		Journal:    c.dur,
		Tokens:     c.dur.Tokens(),
	})
	if err != nil {
		t.Fatalf("server over fenced durable: %v", err)
	}
	oldHTTP := httptest.NewServer(oldSrv.Handler())
	defer oldHTTP.Close()
	status, e = postJSON(t, oldHTTP.URL+"/v1/submit", "tok", 0, nil)
	if status != http.StatusConflict || e.Code != repl.CodeFenced || e.FencedBy != 2 {
		t.Fatalf("submit on fenced primary's server = (%d, %+v), want 409 %q fenced by 2", status, e, repl.CodeFenced)
	}

	// A follower can never be born from a fenced leftover: bootstrap
	// classifies the 409 as a stale primary, not as divergence to resync
	// around.
	if _, err := repl.NewFollower(repl.FollowerOptions{
		Primary:  c.primary.URL,
		Token:    "admin",
		Interval: time.Hour,
	}); !errors.Is(err, repl.ErrStalePrimary) {
		t.Fatalf("bootstrap from fenced primary: %v, want ErrStalePrimary", err)
	}

	// The promoted node is a complete primary: the next generation of
	// followers bootstraps from it, inherits epoch 2, and sees the wall.
	fol2, err := repl.NewFollower(repl.FollowerOptions{
		Primary:  c.folHTTP.URL,
		Token:    "admin",
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatalf("bootstrap from promoted node: %v", err)
	}
	if err := fol2.SyncOnce(); err != nil {
		t.Fatalf("sync from promoted node: %v", err)
	}
	if got := fol2.Epoch(); got != 2 {
		t.Fatalf("new follower epoch = %d, want 2", got)
	}
	if ex, err := fol2.System().ExplainDecision("app", c.qm); err != nil || ex.Admissible {
		t.Fatalf("new follower finds the walled query admissible (%v, %v)", ex.Admissible, err)
	}

	// And a delegation stamped with the superseded epoch is turned away:
	// a stale follower must resync before it may delegate decisions.
	status, e = postJSON(t, c.folHTTP.URL+"/v1/repl/decide", "admin", 0, repl.DecideRequest{
		Principal: "app", Query: "QC(p, e) :- C(p, e, r)", Epoch: 1,
	})
	if status != http.StatusConflict || e.Code != repl.CodeStaleEpoch || e.Epoch != 2 || e.RequestEpoch != 1 {
		t.Fatalf("epoch-1 decide at promoted node = (%d, %+v), want 409 %q (2 vs 1)", status, e, repl.CodeStaleEpoch)
	}
}

// TestPromoteZeroAppliedOps covers the emptiest possible failover: a
// follower that bootstrapped from generation-0 checkpoints and never
// applied a single log operation is still promotable — it becomes an
// (empty) epoch-2 primary that fails closed on unreplicated tokens rather
// than improvising.
func TestPromoteZeroAppliedOps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "promoted")
	c := newCluster(t, server.FollowerOptions{AdminToken: "admin", PromoteDir: dir})
	c.proxy.setBlocked(true)

	pr := c.mustPromote()
	if pr.Epoch != 2 || pr.AppliedOps != 0 {
		t.Fatalf("zero-ops promotion = (epoch %d, applied %d), want (2, 0)", pr.Epoch, pr.AppliedOps)
	}
	// The fixture token was logged after the generation-0 checkpoints the
	// replica bootstrapped from, so it never replicated: authentication
	// fails closed on the promoted node.
	if _, err := c.client("tok").Submit("QC(p, e) :- C(p, e, r)"); err == nil {
		t.Fatal("promoted empty node accepted a token it never replicated")
	}
	// The shared registry exposes the failover metric families, live. The
	// promoted node serves the primary's /metrics, which is gated by the
	// admin token.
	body := scrapeFollower(t, c, "admin")
	if v := gaugeValue(t, body, "disclosure_epoch"); v != 2 {
		t.Fatalf("disclosure_epoch = %v, want 2", v)
	}
	if v := gaugeValue(t, body, "disclosure_promotions_total"); v < 1 {
		t.Fatalf("disclosure_promotions_total = %v, want >= 1", v)
	}
	if !strings.Contains(body, "# TYPE disclosure_fenced_rejections_total counter") {
		t.Error("promoted exposition missing the fenced-rejections counter family")
	}

	if status, body := c.promote("admin"); status != http.StatusConflict {
		t.Fatalf("double promote on empty node = %d, want 409: %s", status, body)
	}
}

// TestPromotedStateRecovers is prefix-replay determinism across the
// promotion boundary: the epoch bump and every decision the promoted node
// made are durable, so killing the promoted node and replaying its data
// directory reproduces epoch 2 with the walled session intact — the
// refusal survives a second failure.
func TestPromotedStateRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "promoted")
	c := newCluster(t, server.FollowerOptions{AdminToken: "admin", PromoteDir: dir})
	c.sync()
	c.wall()
	c.sync()
	c.proxy.setBlocked(true)

	if pr := c.mustPromote(); pr.Epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", pr.Epoch)
	}
	// Extend history past the promotion: one more admitted decision that
	// recovery must also reproduce.
	if res, err := c.client("tok").Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("post-promotion submit = (allowed=%v, err=%v), want admitted", res.Allowed, err)
	}
	promoted := c.fol.Promoted()
	if promoted == nil {
		t.Fatal("follower reports no promoted durable")
	}
	wantLive, wantAccepted, wantRefused, err := promoted.System().Session("app")
	if err != nil {
		t.Fatalf("promoted Session: %v", err)
	}
	wantExplain, err := promoted.System().ExplainDecision("app", c.qm)
	if err != nil {
		t.Fatalf("promoted ExplainDecision: %v", err)
	}

	// Take the promoted node down (checkpoint + close via the serving
	// layer's shutdown) and replay its directory cold.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.folSrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	dur2, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, c.schema, c.views...)
	if err != nil {
		t.Fatalf("reopen promoted dir: %v", err)
	}
	defer dur2.Close()
	if got := dur2.Epoch(); got != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got)
	}
	if got := dur2.FencedBy(); got != 0 {
		t.Fatalf("recovered node is fenced by %d, want unfenced", got)
	}
	gotLive, gotAccepted, gotRefused, err := dur2.System().Session("app")
	if err != nil {
		t.Fatalf("recovered Session: %v", err)
	}
	// The shutdown was graceful, so even the soft decision counts are exact.
	if fmt.Sprint(gotLive) != fmt.Sprint(wantLive) || gotAccepted != wantAccepted || gotRefused != wantRefused {
		t.Fatalf("recovered session = (%v, %d, %d), promoted had (%v, %d, %d)",
			gotLive, gotAccepted, gotRefused, wantLive, wantAccepted, wantRefused)
	}
	if e, err := dur2.System().ExplainDecision("app", c.qm); err != nil || e.Cumulative != wantExplain.Cumulative {
		t.Fatalf("recovered cumulative disclosure = %q (err=%v), promoted had %q", e.Cumulative, err, wantExplain.Cumulative)
	}
	if dec, _, err := dur2.System().Submit("app", c.qm); err != nil || dec.Allowed {
		t.Fatalf("recovered promoted node re-admitted the walled query (allowed=%v, err=%v)", dec.Allowed, err)
	}
}

// TestPromoteRequiresConfig pins the promotion endpoint's failure modes:
// disabled without an admin token, credential-gated, and refused without a
// data directory to materialize into.
func TestPromoteRequiresConfig(t *testing.T) {
	// No admin token: promotion is disabled outright.
	c := newCluster(t, server.FollowerOptions{})
	if status, body := c.promote("admin"); status != http.StatusForbidden {
		t.Fatalf("promote without admin token configured = %d, want 403: %s", status, body)
	}

	// Admin token but no data directory: the request is authenticated yet
	// unsatisfiable.
	c2 := newCluster(t, server.FollowerOptions{AdminToken: "admin"})
	if status, body := c2.promote("wrong"); status != http.StatusUnauthorized {
		t.Fatalf("promote with wrong token = %d, want 401: %s", status, body)
	}
	if status, body := c2.promote("admin"); status != http.StatusPreconditionFailed {
		t.Fatalf("promote without -data-dir = %d, want 412: %s", status, body)
	}
}

// TestFollowerRefusesFencedPrimary covers the follower half of split-brain
// hygiene: once the primary it follows has been fenced by a successor
// epoch, the follower's sync classifies the condition as a stale primary —
// it keeps its replica, keeps serving reads, and fails submissions closed
// instead of resyncing from the leftover.
func TestFollowerRefusesFencedPrimary(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()
	c.sync()

	// Fence the primary with a message from a (simulated) successor epoch.
	if status, _, _ := replGet(t, c.primary.URL, "/v1/repl/tails", "admin", 7); status != http.StatusConflict {
		t.Fatalf("epoch-7 tails at primary = %d, want 409", status)
	}
	if got := c.dur.FencedBy(); got != 7 {
		t.Fatalf("FencedBy = %d, want 7", got)
	}

	if err := c.fol.SyncOnce(); !errors.Is(err, repl.ErrStalePrimary) {
		t.Fatalf("SyncOnce against fenced primary: %v, want ErrStalePrimary", err)
	}
	// The replica is intact and keeps serving reads.
	if ex, err := c.fol.System().ExplainDecision("app", c.qm); err != nil || ex.Admissible {
		t.Fatalf("replica after refused sync: Admissible=%v err=%v, want false", ex.Admissible, err)
	}
	// Submissions delegate to a fenced primary and must fail closed.
	if res, err := c.client("tok").Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error == "" {
		t.Fatalf("submit via follower of fenced primary = (allowed=%v, error=%q, err=%v), want a closed failure", res.Allowed, res.Error, err)
	}
}

// TestFollowerRefusalIsThePrimarys pins whose explanation a follower's
// refusal body is. The replica synced before the primary's session moved
// and has not synced since, so its own account of the session is wrong in
// every field that moved — live partitions, cumulative disclosure, counts.
// The replica's session would admit the query, so the decision is not the
// replica's to make: the refusal the follower returns must be the primary's
// account of the state the refusal was decided on, and producing it costs
// the replica exactly one label-cache lookup — the probe that found it
// could not refuse on its own — and one decision RPC.
func TestFollowerRefusalIsThePrimarys(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall() // the primary's session advances; the replica's does not

	stale, err := c.fol.System().ExplainDecision("app", c.qm)
	if err != nil || !stale.Admissible || stale.Accepted != 0 {
		t.Fatalf("replica's own explanation = %+v (err=%v), want the pre-wall session — the lag premise is broken", stale, err)
	}
	before := c.fol.System().Stats().Cache

	res, err := c.client("tok").Submit("QM(t) :- M(t, p)")
	if err != nil || res.Allowed || res.Error != "" || res.Refusal == nil {
		t.Fatalf("submit via lagging follower = (%+v, %v), want a refusal with a body", res, err)
	}
	if after := c.fol.System().Stats().Cache; after.Hits+after.Misses != before.Hits+before.Misses+1 {
		t.Errorf("a relayed refusal cost %d label-cache lookups on the replica, want 1",
			after.Hits+after.Misses-before.Hits-before.Misses)
	}
	if n := c.fol.LocalRefusals(); n != 0 {
		t.Errorf("the replica decided %d refusals itself; its session admits the query, so this one was the primary's", n)
	}

	// Nothing has touched the primary's session since the refusal, so its
	// ExplainDecision now is the state the refusal was decided on.
	want, err := c.dur.System().ExplainDecision("app", c.qm)
	if err != nil {
		t.Fatalf("primary ExplainDecision: %v", err)
	}
	if !reflect.DeepEqual(*res.Refusal, want) {
		t.Errorf("follower refusal body = %+v\nprimary's explanation = %+v", *res.Refusal, want)
	}
	if want.Accepted != 1 || want.Cumulative == stale.Cumulative || want.Partitions[0].Live == stale.Partitions[0].Live {
		t.Fatalf("primary explanation %+v does not differ from the replica's %+v: the test proves nothing", want, stale)
	}
	var live []string
	for _, p := range res.Refusal.Partitions {
		if p.Live {
			live = append(live, p.Name)
		}
	}
	if !reflect.DeepEqual(live, res.Live) {
		t.Errorf("refusal body live partitions %v, decision live %v", live, res.Live)
	}
}

// TestPromotedNodeKeepsAuditing is the failover half of the audit trail:
// the sink and slow-query threshold a follower was started with keep
// receiving records once it is promoted — from the promoted System's own
// pipeline, so stamped "primary" — and the follower-stamped records before
// the promotion are in the same file.
func TestPromotedNodeKeepsAuditing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	audit, err := obs.OpenAuditLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	c := newCluster(t, server.FollowerOptions{
		AdminToken: "admin",
		PromoteDir: filepath.Join(t.TempDir(), "promoted"),
		Audit:      audit,
		SlowQuery:  time.Nanosecond, // every admission is slow: recorded too
	})
	c.sync()
	c.wall()
	c.sync()

	cl := c.client("tok")
	if res, err := cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("walled query via follower = (%+v, %v), want refused", res, err)
	}
	c.proxy.setBlocked(true)
	c.mustPromote()
	if res, err := cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Refusal == nil {
		t.Fatalf("walled query on promoted node = (%+v, %v), want refused", res, err)
	}
	if res, err := cl.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		t.Fatalf("allowed query on promoted node = (%+v, %v), want admitted", res, err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r obs.AuditRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		if r.Outcome == "refused" && !reflect.DeepEqual(r.Offending, []string{"W2"}) {
			t.Errorf("refusal record names offending partitions %v, want [W2]: %+v", r.Offending, r)
		}
		got = append(got, r.Node+" "+r.Query+" "+r.Outcome)
	}
	want := []string{"follower QM refused", "primary QM refused", "primary QC admitted"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("audit trail across the promotion = %q, want %q", got, want)
	}
}
