package repl_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// This file pins the follower's decision split: a refusal the in-contact
// replica's own session implies is decided on the follower, every other
// decision crosses the decision RPC. The fixture's policy is the two-wall
// Chinese Wall of newCluster (W1 = {V1} over M, W2 = {V3} over C); S has no
// view, so a query over it labels ⊤.

// kind is one query shape of the fixture and the wall that dominates its
// label (-1: none does, under any session).
type kind struct {
	src  string
	wall int
}

var kinds = []kind{
	{"QM(t) :- M(t, p)", 0},
	{"QC(p, e) :- C(p, e, r)", 1},
	{"QJ(t, e) :- M(t, p), C(p, e, r)", -1}, // needs both walls at once
	{"QS(p) :- S(p, s)", -1},                // ⊤
}

// model is the sequential reference the histories are judged against: the
// paper's monitor for the fixture's policy, one live bit per wall.
type model struct {
	installed bool
	live      [2]bool
}

func (m *model) install() { *m = model{installed: true, live: [2]bool{true, true}} }

// admits reports whether the session would admit a query of kind k now.
func (m *model) admits(k kind) bool { return m.installed && k.wall >= 0 && m.live[k.wall] }

// submit decides a query of kind k and advances the session.
func (m *model) submit(k kind) bool {
	if !m.admits(k) {
		return false
	}
	m.live = [2]bool{}
	m.live[k.wall] = true
	return true
}

// decideRPCs is the number of decision RPCs the follower behind reg has made.
func decideRPCs(reg *obs.Registry) uint64 {
	return reg.Histogram("disclosure_repl_decide_seconds", "", obs.LatencyBuckets).Count()
}

// logFrames counts the frames in every log segment of the primary's
// directory.
func logFrames(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("log segments of %s: %v (err=%v)", dir, segs, err)
	}
	n := 0
	for _, seg := range segs {
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Frames(buf, func([]byte) error { n++; return nil }); err != nil {
			t.Fatalf("%s: %v", seg, err)
		}
	}
	return n
}

// untouched captures what a replica-decided refusal must leave alone: the
// replica's session and tallies, the primary's counters and its log.
func (c *cluster) untouched() string {
	c.t.Helper()
	live, acc, ref, err := c.fol.System().Session("app")
	if err != nil {
		c.t.Fatalf("replica Session: %v", err)
	}
	ps := c.dur.System().Stats()
	return fmt.Sprint(live, acc, ref, ps.Queries, ps.Admitted, ps.Refused, ps.Errored, logFrames(c.t, c.dur.Dir()))
}

// TestFollowerDifferentialHistories runs seeded histories over submits
// through the follower (single and batched; admissible, walled and ⊤),
// submits at the primary behind the follower's back, policy re-installs,
// principal removals, syncs, partitions and heals, against the sequential
// model. The replica model is the primary model as of the last successful
// sync: what the replica's session refuses is what the follower may refuse
// by itself.
func TestFollowerDifferentialHistories(t *testing.T) {
	parts := map[string][]string{"W1": {"V1"}, "W2": {"V3"}}
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// One connection per request: a heal right after a partition
			// would otherwise hand the next RPC a connection the partition
			// killed, and whether the transport has noticed yet is a race.
			c := newClusterHTTP(t, server.FollowerOptions{},
				&http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 15 * time.Second})
			c.sync()
			var prim, rep model
			prim.install()
			rep = prim
			// unapplied: a policy record the replica has not applied yet;
			// tokenLive: the primary still holds the principal's token.
			partitioned, unapplied, tokenLive := false, false, true
			cl := c.client("tok")
			sys := c.dur.System()

			for step := 0; step < 80; step++ {
				at := fmt.Sprintf("step %d", step)
				switch p := rng.Intn(100); {
				case p < 50: // a request through the follower
					n := 1
					if p >= 30 {
						n = 2 + rng.Intn(3)
					}
					ks := make([]kind, n)
					srcs := make([]string, n)
					for i := range ks {
						ks[i] = kinds[rng.Intn(len(kinds))]
						srcs[i] = ks[i].src
					}
					contact := c.fol.InContact()
					wantRPCs := 0
					for _, k := range ks {
						if rep.installed && (!contact || rep.admits(k)) {
							wantRPCs++
						}
					}
					var before string
					if rep.installed {
						before = c.untouched()
					}
					rpcs, local := decideRPCs(c.reg), c.fol.LocalRefusals()

					var results []server.SubmitResult
					var err error
					if n == 1 {
						var r server.SubmitResult
						r, err = cl.Submit(srcs[0])
						results = []server.SubmitResult{r}
					} else {
						results, err = cl.SubmitBatch(srcs)
					}
					if err != nil {
						// The replica does not know the principal: nobody is
						// asked, nothing is admitted.
						if rep.installed {
							t.Fatalf("%s: request failed though the replica holds the principal: %v", at, err)
						}
						results = nil
					}
					if got := decideRPCs(c.reg) - rpcs; got != uint64(wantRPCs) {
						t.Fatalf("%s: %v cost %d decision RPCs, want %d (one per would-be admit; contact=%v)", at, srcs, got, wantRPCs, contact)
					}
					if err == nil {
						if got := c.fol.LocalRefusals() - local; got != uint64(n-wantRPCs) {
							t.Fatalf("%s: %v counted %d local refusals, want %d", at, srcs, got, n-wantRPCs)
						}
						if wantRPCs == 0 && c.untouched() != before {
							t.Fatalf("%s: replica-decided refusals moved state: %s -> %s", at, before, c.untouched())
						}
					}
					for i, r := range results {
						want := prim.admits(ks[i])
						switch {
						case r.Allowed:
							if !want {
								t.Fatalf("%s: follower admitted %s, which the model refuses", at, srcs[i])
							}
							prim.submit(ks[i])
						case r.Error != "":
							// Failed closed. Only a partition or a principal the
							// primary no longer holds explains it.
							if !partitioned && prim.installed {
								t.Fatalf("%s: %s errored with the primary reachable: %s", at, srcs[i], r.Error)
							}
						case want && !unapplied:
							t.Fatalf("%s: follower refused %s, which the model admits, with no policy record outstanding", at, srcs[i])
						case r.Refusal == nil:
							t.Fatalf("%s: refusal of %s carries no explanation", at, srcs[i])
						}
					}
				case p < 60: // a submit at the primary, behind the follower's back
					k := kinds[rng.Intn(len(kinds))]
					dec, _, err := sys.Submit("app", disclosure.MustParse(k.src))
					if want := prim.submit(k); dec.Allowed != want || (err != nil) != !prim.installed {
						t.Fatalf("%s: primary decided %s allowed=%v err=%v, model says %v", at, k.src, dec.Allowed, err, want)
					}
				case p < 68: // policy re-install: a fresh session
					if err := sys.SetPolicy("app", parts); err != nil {
						t.Fatal(err)
					}
					if !tokenLive {
						if err := c.dur.LogToken("app", "tok"); err != nil {
							t.Fatal(err)
						}
						tokenLive = true
					}
					prim.install()
					unapplied = true
				case p < 72: // principal removal
					if err := sys.RemovePolicy("app"); err != nil {
						t.Fatal(err)
					}
					prim, tokenLive, unapplied = model{}, false, true
				case p < 88: // a sync pass
					err := c.fol.SyncOnce()
					if (err != nil) != partitioned {
						t.Fatalf("%s: SyncOnce err=%v with partitioned=%v", at, err, partitioned)
					}
					if c.fol.InContact() == partitioned {
						t.Fatalf("%s: InContact=%v after a sync pass with partitioned=%v", at, !partitioned, partitioned)
					}
					if err == nil {
						rep, unapplied = prim, false
					}
				default: // partition or heal
					partitioned = !partitioned
					c.proxy.setBlocked(partitioned)
				}
			}
		})
	}
}

// TestFollowerContactGate: a follower refuses by itself only while its most
// recent sync pass succeeded, recently. After a failed pass — a partition,
// a fenced primary — and once two poll intervals have gone by without one,
// even a query the replica's session plainly refuses takes the RPC, and
// fails closed when the primary cannot be reached.
func TestFollowerContactGate(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()
	c.sync() // the replica's own session refuses QM now
	cl := c.client("tok")

	submit := func(wantRPCs, wantLocal uint64) server.SubmitResult {
		t.Helper()
		rpcs, local := decideRPCs(c.reg), c.fol.LocalRefusals()
		res, err := cl.Submit("QM(t) :- M(t, p)")
		if err != nil || res.Allowed {
			t.Fatalf("QM via follower = (%+v, %v), want it not admitted", res, err)
		}
		if r, l := decideRPCs(c.reg)-rpcs, c.fol.LocalRefusals()-local; r != wantRPCs || l != wantLocal {
			t.Fatalf("QM cost %d RPCs and %d local refusals, want %d and %d", r, l, wantRPCs, wantLocal)
		}
		return res
	}
	if res := submit(0, 1); res.Error != "" || res.Refusal == nil {
		t.Fatalf("in contact: %+v, want the replica's refusal", res)
	}

	c.proxy.setBlocked(true)
	if err := c.fol.SyncOnce(); err == nil {
		t.Fatal("SyncOnce succeeded across a partition")
	}
	if c.fol.InContact() {
		t.Fatal("in contact after a failed sync pass")
	}
	if res := submit(1, 0); res.Error == "" {
		t.Fatalf("partitioned, out of contact: %+v, want a closed failure", res)
	}
	// Healed but not yet re-synced: still the primary's call.
	c.proxy.setBlocked(false)
	if res := submit(1, 0); res.Error != "" || res.Refusal == nil {
		t.Fatalf("healed, out of contact: %+v, want the primary's refusal", res)
	}
	c.sync()
	submit(0, 1)

	// A fenced primary fails the pass like a partition does.
	if status, _, _ := replGet(t, c.primary.URL, "/v1/repl/tails", "admin", 7); status != 409 {
		t.Fatalf("epoch-7 tails at primary = %d, want 409", status)
	}
	if err := c.fol.SyncOnce(); !errors.Is(err, repl.ErrStalePrimary) {
		t.Fatalf("SyncOnce against fenced primary: %v, want ErrStalePrimary", err)
	}
	if res := submit(1, 0); res.Error == "" {
		t.Fatalf("fenced primary: %+v, want a closed failure", res)
	}
}

// TestFollowerContactLapses is the hung-sync half of the gate: a follower
// whose loop is not running loses its standing to refuse two poll intervals
// after its last pass.
func TestFollowerContactLapses(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.wall()
	const interval = 10 * time.Millisecond
	reg := obs.NewRegistry()
	fol, err := repl.NewFollower(repl.FollowerOptions{Primary: c.proxy.url(), Token: "admin", Interval: interval, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if fol.InContact() {
		t.Fatal("in contact before the first sync pass")
	}
	last := time.Now()
	if err := fol.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if time.Since(last) < interval && !fol.InContact() {
		t.Fatal("out of contact right after a successful pass")
	}
	waitFor(t, 10*time.Second, "contact to lapse", func() bool { return !fol.InContact() })
	if since := time.Since(last); since < 2*interval {
		t.Fatalf("contact lapsed %s after the last pass began, want at least two intervals (%s)", since, 2*interval)
	}
	// Well past 30 ms since the pass, one way or the other.
	time.Sleep(3*interval - min(3*interval, time.Since(last)))

	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	dec, _, err := fol.System().Submit("app", qm)
	if err != nil || dec.Allowed || decideRPCs(reg) != 1 || fol.LocalRefusals() != 0 {
		t.Fatalf("lapsed contact: allowed=%v err=%v after %d RPCs and %d local refusals, want the primary's refusal by one RPC",
			dec.Allowed, err, decideRPCs(reg), fol.LocalRefusals())
	}
	c.proxy.setBlocked(true)
	if dec, _, err := fol.System().Submit("app", qm); err == nil || dec.Allowed {
		t.Fatalf("lapsed contact, partitioned: allowed=%v err=%v, want a closed failure", dec.Allowed, err)
	}
}

// TestFollowerStaleRefusalAfterPolicyReinstall is the one case where a
// replica-decided refusal is not the primary's answer: the primary has
// re-installed the policy — a fresh session that would admit the query —
// and the replica has not applied that record yet. The cost is a refusal,
// never an admit, and the first sync ends it.
func TestFollowerStaleRefusalAfterPolicyReinstall(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()
	c.sync()
	if err := c.dur.System().SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.dur.System().ExplainDecision("app", c.qm); err != nil || !e.Admissible {
		t.Fatalf("primary after the re-install: Admissible=%v err=%v, want true", e.Admissible, err)
	}

	cl := c.client("tok")
	res, err := cl.Submit("QM(t) :- M(t, p)")
	if err != nil || res.Allowed || res.Error != "" || c.fol.LocalRefusals() != 1 {
		t.Fatalf("before the sync: (%+v, %v) with %d local refusals, want the replica's stale refusal", res, err, c.fol.LocalRefusals())
	}
	c.sync()
	res, err = cl.Submit("QM(t) :- M(t, p)")
	if err != nil || !res.Allowed || len(res.Rows) != 1 {
		t.Fatalf("after the sync: (%+v, %v), want QM admitted by the primary's fresh session", res, err)
	}
}

// TestFollowerBatchOneLabelRoundOneRPC: a batch is one pass of the replica
// System's pipeline — one labeling round, which looks each distinct
// canonical form up once (a round per query would look QM up twice), then
// per query either the replica's refusal or one RPC, then one evaluation of
// what was admitted.
func TestFollowerBatchOneLabelRoundOneRPC(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	c.wall()
	c.sync()
	lookups := func() uint64 {
		cs := c.fol.System().Stats().Cache
		return cs.Hits + cs.Misses
	}
	looked, rpcs := lookups(), decideRPCs(c.reg)
	primQueries := c.dur.System().Stats().Queries

	res, err := c.client("tok").SubmitBatch([]string{"QM(t) :- M(t, p)", "QC(p, e) :- C(p, e, r)", "QM(t) :- M(t, p)"})
	if err != nil || len(res) != 3 {
		t.Fatalf("batch via follower: %v (%d results)", err, len(res))
	}
	if res[0].Allowed || res[0].Refusal == nil || !res[1].Allowed || len(res[1].Rows) != 1 || res[2].Allowed || res[2].Refusal == nil {
		t.Fatalf("batch [walled, admissible, walled] = %+v", res)
	}
	if got := lookups() - looked; got != 2 {
		t.Errorf("the batch cost %d label-cache lookups, want 2 (one round over its distinct canonical forms)", got)
	}
	if got := decideRPCs(c.reg) - rpcs; got != 1 {
		t.Errorf("the batch cost %d decision RPCs, want 1 (the admissible query)", got)
	}
	if got := c.dur.System().Stats().Queries - primQueries; got != 1 {
		t.Errorf("the primary saw %d of the batch's queries, want 1", got)
	}
	if got := c.fol.LocalRefusals(); got != 2 {
		t.Errorf("local refusals = %d, want 2", got)
	}
}

// TestFollowerAuditSaysWhoDecided: the follower's audit records come from
// the replica System's pipeline, stamped with the replica's staleness and
// with the node whose session the outcome was decided on; the new counter
// is on the instance registry's exposition.
func TestFollowerAuditSaysWhoDecided(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	audit, err := obs.OpenAuditLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	c := newCluster(t, server.FollowerOptions{Audit: audit})
	c.sync()
	c.wall() // the lagging replica would admit QM: the primary's refusal
	cl := c.client("tok")
	if res, err := cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("QM via lagging follower = (%+v, %v)", res, err)
	}
	c.sync() // now the replica's own
	if res, err := cl.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		t.Fatalf("QM via caught-up follower = (%+v, %v)", res, err)
	}
	c.proxy.setBlocked(true) // a would-be admit with nobody to ask
	if res, err := cl.Submit("QC(p, e) :- C(p, e, r)"); err != nil || res.Error == "" {
		t.Fatalf("QC via partitioned follower = (%+v, %v)", res, err)
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
		if r.StalenessSeconds <= 0 || r.Fingerprint == "" {
			t.Errorf("record lacks its staleness stamp or fingerprint: %+v", r)
		}
		got = append(got, strings.Join([]string{r.Node, r.Query, r.Outcome, r.DecidedBy}, " "))
	}
	want := []string{"follower QM refused primary", "follower QM refused replica", "follower QC errored "}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("audit trail = %q, want %q", got, want)
	}
	if v := gaugeValue(t, scrapeFollower(t, c, ""), "disclosure_follower_local_refusals_total"); v != 1 {
		t.Fatalf("disclosure_follower_local_refusals_total = %v, want 1", v)
	}
}

// TestReplicaTokenIndex: the follower authenticates against an index kept
// where the replicated token table is written. A rotation supersedes the
// old token, a removal forgets the principal's.
func TestReplicaTokenIndex(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	if who, ok := c.fol.TokenOwner("tok"); !ok || who != "app" {
		t.Fatalf("TokenOwner(tok) = (%q, %v), want app", who, ok)
	}
	if err := c.dur.LogToken("app", "tok2"); err != nil {
		t.Fatal(err)
	}
	c.sync()
	if _, err := c.client("tok").Submit("QM(t) :- M(t, p)"); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("submit with the rotated-away token: %v, want a 401", err)
	}
	if res, err := c.client("tok2").Submit("QM(t) :- M(t, p)"); err != nil || !res.Allowed {
		t.Fatalf("submit with the new token = (%+v, %v), want admitted", res, err)
	}
	if err := c.dur.System().RemovePolicy("app"); err != nil {
		t.Fatal(err)
	}
	c.sync()
	for _, tok := range []string{"tok", "tok2"} {
		if who, ok := c.fol.TokenOwner(tok); ok {
			t.Fatalf("TokenOwner(%s) = %q after the principal's removal", tok, who)
		}
	}
}
