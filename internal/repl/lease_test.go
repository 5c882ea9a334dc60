package repl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/clock"
	"repro/internal/node"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// This file pins the follower's read lease: a would-be admit that the
// leased replica's session settles — the primary would admit it and move
// nothing — is decided on the follower, and the primary acknowledges no
// policy installation, removal or token rotation while a lease granted
// before it is live. Each test drives SyncOnce itself, with a poll interval
// short enough for the primary to grant the two-interval window.

// follow opens a follower node of the primary at base with the given poll
// interval and returns its Follower; its sync loop never runs on its own.
func follow(t *testing.T, base string, interval time.Duration) *repl.Follower {
	t.Helper()
	return openNode(t, node.Config{Follow: repl.FollowerOptions{Primary: base, Token: "admin", Interval: interval}}).Follower()
}

// settles reports whether the modelled session would admit a query of kind
// k and move nothing: its wall is the only one live, and — each wall having
// one query kind — the cumulative disclosure already holds the label.
func (m *model) settles(k kind) bool {
	return m.admits(k) && !m.live[1-k.wall]
}

// TestLeaseDifferentialHistories runs seeded histories over submits through
// a leasing follower (single and batched; admissible, walled and ⊤),
// submits at the primary behind its back, syncs, partitions and heals,
// against the sequential model. A query the replica's session settles costs
// no decision RPC while the replica holds its lease and one RPC out of it;
// it is admitted either way, and the primary's session agrees.
func TestLeaseDifferentialHistories(t *testing.T) {
	var inLease, outOfLease int
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newClusterWith(t, server.FollowerOptions{},
				&http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 15 * time.Second}, time.Second)
			c.sync()
			var prim model
			prim.install()
			rep := prim
			partitioned := false
			cl := c.client("tok")
			sys := c.dur.System()

			for step := 0; step < 80; step++ {
				at := fmt.Sprintf("step %d", step)
				switch p := rng.Intn(100); {
				case p < 55: // a request through the follower
					n := 1
					if p >= 35 {
						n = 2 + rng.Intn(3)
					}
					ks := make([]kind, n)
					srcs := make([]string, n)
					for i := range ks {
						ks[i] = kinds[rng.Intn(len(kinds))]
						srcs[i] = ks[i].src
					}
					contact, leased := c.fol.InContact(), c.fol.InLease()
					if leased && !contact {
						t.Fatalf("%s: a lease without contact", at)
					}
					wantRPCs, wantAdmits, settled := 0, 0, 0
					for _, k := range ks {
						switch {
						case !contact:
							wantRPCs++
						case !rep.admits(k):
						case rep.settles(k) && leased:
							wantAdmits++
						default:
							wantRPCs++
						}
						if rep.settles(k) {
							settled++
						}
					}
					rpcs, admits := decideRPCs(c.reg), c.fol.LocalAdmits()
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
						t.Fatalf("%s: %v: %v", at, srcs, err)
					}
					// The lease and the contact can only lapse on their own
					// during the request; a request they lapsed under is
					// judged on its outcomes alone.
					if c.fol.InContact() == contact && c.fol.InLease() == leased {
						gotRPCs, gotAdmits := decideRPCs(c.reg)-rpcs, c.fol.LocalAdmits()-admits
						if gotRPCs != uint64(wantRPCs) || gotAdmits != uint64(wantAdmits) {
							t.Fatalf("%s: %v cost %d decision RPCs and %d local admits, want %d and %d (contact=%v lease=%v)",
								at, srcs, gotRPCs, gotAdmits, wantRPCs, wantAdmits, contact, leased)
						}
						if leased {
							inLease += settled
						} else {
							outOfLease += settled
						}
					}
					for i, r := range results {
						want := prim.admits(ks[i])
						switch {
						case r.Allowed && !want:
							t.Fatalf("%s: follower admitted %s, which the model refuses", at, srcs[i])
						case r.Allowed:
							prim.submit(ks[i])
						case r.Error != "":
							if !partitioned {
								t.Fatalf("%s: %s errored with the primary reachable: %s", at, srcs[i], r.Error)
							}
						case want:
							t.Fatalf("%s: follower refused %s, which the model admits", at, srcs[i])
						}
					}
				case p < 65: // a submit at the primary, behind the follower's back
					k := kinds[rng.Intn(len(kinds))]
					if dec, _, err := sys.Submit("app", disclosure.MustParse(k.src)); err != nil || dec.Allowed != prim.submit(k) {
						t.Fatalf("%s: primary decided %s allowed=%v err=%v", at, k.src, dec.Allowed, err)
					}
				case p < 88: // a sync pass
					err := c.fol.SyncOnce()
					if (err != nil) != partitioned {
						t.Fatalf("%s: SyncOnce err=%v with partitioned=%v", at, err, partitioned)
					}
					if partitioned && (c.fol.InLease() || c.fol.InContact()) {
						t.Fatalf("%s: a failed pass left lease=%v contact=%v", at, c.fol.InLease(), c.fol.InContact())
					}
					if err == nil {
						rep = prim
					}
				default: // partition or heal
					partitioned = !partitioned
					c.proxy.setBlocked(partitioned)
				}
			}
		})
	}
	if inLease == 0 || outOfLease == 0 {
		t.Fatalf("the histories decided %d settled queries in lease and %d out of lease, want both", inLease, outOfLease)
	}
}

// policy shapes the install race cycles through: loose admits QM, tight
// refuses it.
var (
	loose = map[string][]string{"W1": {"V1"}, "W2": {"V3"}}
	tight = map[string][]string{"W2": {"V3"}}
)

// TestLeaseInstallsRaceAdmits races policy tightenings and principal
// removals at the primary against four goroutines submitting QM through a
// leasing follower whose sync loop runs on. Installations cycle loose,
// tight, removal, and every loose one stays until the follower has
// admitted QM on its own under it. An admit is judged against the
// installations acknowledged before it was invoked: it is legal only if
// the latest of them, or one started before the admit returned, is a loose
// one.
func TestLeaseInstallsRaceAdmits(t *testing.T) {
	const interval = 20 * time.Millisecond
	c := newClusterWith(t, server.FollowerOptions{}, nil, interval)
	c.sync()
	sys := c.dur.System()
	looseAt := func(i int64) bool { return i%3 == 0 }

	// acked is the index of the latest installation acknowledged, started
	// of the latest one begun; the cluster's own policy is installation 0.
	var acked, started atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = c.fol.SyncOnce()
			time.Sleep(interval / 2)
		}
	}()
	var admits, violations atomic.Int64
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				a := acked.Load()
				dec, _, _ := c.fol.System().Submit("app", c.qm)
				s := started.Load()
				if !dec.Allowed {
					continue
				}
				admits.Add(1)
				legal := false
				for j := a; j <= s; j++ {
					legal = legal || looseAt(j)
				}
				if !legal && violations.Add(1) <= 5 {
					t.Errorf("QM admitted under installation %d (%v), acknowledged before the submit began; installations started by its return: %d",
						a, map[int64]string{1: "tight", 2: "removal"}[a%3], s)
				}
			}
		}()
	}
	for i := int64(1); i <= 30; i++ {
		started.Store(i)
		var err error
		switch i % 3 {
		case 0:
			err = sys.SetPolicy("app", loose)
		case 1:
			err = sys.SetPolicy("app", tight)
		case 2:
			err = sys.RemovePolicy("app")
		}
		if err != nil {
			t.Fatalf("installation %d: %v", i, err)
		}
		acked.Store(i)
		if looseAt(i) {
			// Dwell until the follower admits on its own again: the
			// next tightening then races a replica that settles QM.
			local := c.fol.LocalAdmits()
			waitFor(t, 10*time.Second, "a local admit under the loose policy", func() bool { return c.fol.LocalAdmits() > local })
		} else {
			time.Sleep(interval)
		}
	}
	stop.Store(true)
	wg.Wait()
	if c.fol.LocalAdmits() == 0 {
		t.Fatalf("no admit was decided on the follower (%d admits in all): the race never reached the lease", admits.Load())
	}
	t.Logf("%d admits, %d of them local; %d violations", admits.Load(), c.fol.LocalAdmits(), violations.Load())
}

// tailsHook is a follower's transport to the primary that hands every
// successful tails response to fn on its way back.
type tailsHook func(resp *http.Response) error

func (fn tailsHook) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/repl/tails" && resp.StatusCode == http.StatusOK {
		err = fn(resp)
	}
	return resp, err
}

// stripGrant removes the read-lease grant from a tails response, as a
// primary that predates read leases would answer.
func stripGrant(resp *http.Response) error {
	var tails repl.TailsResponse
	if err := json.NewDecoder(resp.Body).Decode(&tails); err != nil {
		return err
	}
	resp.Body.Close()
	tails.Lease = false
	body, err := json.Marshal(tails)
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return err
}

// TestLeaseStrippedOrOverCap: a follower whose primary's grant never
// reaches it — stripped on the way, as from a primary that predates read
// leases — and a follower whose window (two intervals) is above
// disclosure.MaxReadLease both send every admit to the primary, settled or
// not. A follower at the cap, pulling through the same primary, decides
// the same admits itself.
func TestLeaseStrippedOrOverCap(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.wall() // QC is admitted, QM refused: every replica synced from here settles QC
	for _, tc := range []struct {
		name     string
		strip    bool
		interval time.Duration
		leased   bool
	}{
		{"grant stripped", true, time.Second, false},
		{"over the cap", false, disclosure.MaxReadLease/2 + time.Millisecond, false},
		{"at the cap", false, disclosure.MaxReadLease / 2, true},
	} {
		opts := repl.FollowerOptions{Primary: c.proxy.url(), Token: "admin", Interval: tc.interval}
		if tc.strip {
			opts.HTTP = &http.Client{Transport: tailsHook(stripGrant)}
		}
		fol := openNode(t, node.Config{Follow: opts}).Follower()
		mustSync(t, fol)
		if fol.InLease() != tc.leased {
			t.Fatalf("%s: InLease = %v after a pass, want %v", tc.name, fol.InLease(), tc.leased)
		}
		wantRPCs, wantAdmits := uint64(3), uint64(0)
		if tc.leased {
			wantRPCs, wantAdmits = 0, 3
		}
		for range 3 {
			if dec, _, err := fol.System().Submit("app", c.qc); err != nil || !dec.Allowed {
				t.Fatalf("%s: QC = (%+v, %v), want admitted", tc.name, dec, err)
			}
		}
		if rpcs, admits := decideRPCs(fol.Metrics()), fol.LocalAdmits(); rpcs != wantRPCs || admits != wantAdmits {
			t.Fatalf("%s: three settled QC cost %d decision RPCs and %d local admits, want %d and %d", tc.name, rpcs, admits, wantRPCs, wantAdmits)
		}
	}
}

// TestLeaseInstallWaits: a policy installation returns at once while no
// follower holds a read lease (the cluster's own follower polls hourly and
// a follower over the cap is granted none); while one does, it returns
// once that lease has lapsed — within one window of the call — or as soon
// as the follower pulls again, and a token rotation and a removal wait the
// same way.
func TestLeaseInstallWaits(t *testing.T) {
	const interval = 250 * time.Millisecond
	const window = 2 * interval
	m := clock.Install(t)
	c := newCluster(t, server.FollowerOptions{})
	sys := c.dur.System()
	// install runs op and returns how long it took on the clock; an op
	// held by a read hold gets the clock moved one window once it blocks
	// on the hold's timer.
	install := func(what string, op func() error, held bool) time.Duration {
		t.Helper()
		t0, done := clock.Now(), make(chan error, 1)
		go func() { done <- op() }()
		if held {
			waitFor(t, 10*time.Second, what+" to wait on the hold", func() bool { return m.Timers() == 1 })
			m.Advance(window)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return time.Duration(clock.Now() - t0)
	}
	setLoose := func() error { return sys.SetPolicy("app", loose) }

	c.sync()
	overCap := follow(t, c.proxy.url(), disclosure.MaxReadLease)
	mustSync(t, overCap)
	if d := install("no lease held", setLoose, false); d >= window {
		t.Fatalf("with no lease held, SetPolicy took %s, want it at once (well under the %s window)", d, window)
	}

	fol := follow(t, c.proxy.url(), interval)
	for _, tc := range []struct {
		what string
		op   func() error
	}{
		{"SetPolicy", setLoose},
		{"LogToken", func() error { return c.dur.LogToken("app", "tok-rotated") }},
		{"RemovePolicy", func() error { return sys.RemovePolicy("app") }},
	} {
		pulled := clock.Now()
		mustSync(t, fol)
		if !fol.InLease() {
			t.Fatalf("%s: no lease after a pass with a %s window", tc.what, window)
		}
		d := install(tc.what+" under a lease", tc.op, true)
		if since := time.Duration(clock.Now() - pulled); since < window {
			t.Fatalf("%s returned %s after the pull that granted the lease, inside its %s window", tc.what, since, window)
		}
		if d > window+250*time.Millisecond {
			t.Fatalf("%s under a lease took %s, want at most about one window (%s)", tc.what, d, window)
		}
		if fol.InLease() {
			t.Fatalf("%s returned while the follower still held the lease", tc.what)
		}
		if err := sys.SetPolicy("app", loose); err != nil { // the next case's principal, unleased
			t.Fatal(err)
		}
		if err := c.dur.LogToken("app", "tok"); err != nil {
			t.Fatal(err)
		}
	}

	// A follower with the longest window pulls again after the commit: the
	// installation returns then, long before the lease it held lapses, and
	// the pass that released it applied it. (A pull that lands between the
	// commit and the installation's look at the holds counts as one before
	// it, so the follower pulls until the installation returns.)
	slow := follow(t, c.proxy.url(), disclosure.MaxReadLease/2)
	granted := clock.Now()
	mustSync(t, slow)
	before := c.dur.ShardTails()[wal.DataShard]
	done := make(chan error, 1)
	go func() { done <- sys.SetPolicy("app", tight) }()
	waitFor(t, 10*time.Second, "the installation to commit", func() bool { return c.dur.ShardTails()[wal.DataShard] != before })
	pullUntil(t, slow, done)
	if took := time.Duration(clock.Now() - granted); took >= disclosure.MaxReadLease {
		t.Fatalf("the installation returned %s after the lease was granted, at its expiry, want it released by the follower's next pull", took)
	}
	if e, err := slow.System().ExplainDecision("app", c.qm); err != nil || e.Admissible || len(e.Partitions) != 1 || e.Partitions[0].Name != "W2" {
		t.Fatalf("replica after the releasing pull: (%+v, %v), want the tight policy", e, err)
	}
}

// pullUntil has fol pull until the installation reporting on done returns,
// and fails the test on its error. The clock stands still, so a pull is
// the only thing that can release it.
func pullUntil(t *testing.T, fol *repl.Follower, done <-chan error) {
	t.Helper()
	waitFor(t, 10*time.Second, "a pull to release the installation", func() bool {
		mustSync(t, fol)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return true
		default:
			return false
		}
	})
}

// TestLeaseNewTokenWaitsOnce: a PUT /v1/policy that rotates the token
// commits the policy and the token record first and then waits out the
// read leases once. With a follower holding a lease, the new token resolves
// on the primary before the lease lapses, and the installation returns at
// the follower's next pull — within one lease window of the call — which
// applies both records. A token another principal holds is refused at
// once, changing nothing.
func TestLeaseNewTokenWaitsOnce(t *testing.T) {
	const window = disclosure.MaxReadLease
	clock.Install(t)
	c := newCluster(t, server.FollowerOptions{})
	sys := c.dur.System()
	if err := sys.SetPolicyAndToken("bob", loose, "tok-bob"); err != nil {
		t.Fatal(err)
	}
	c.sync()
	fol := follow(t, c.proxy.url(), window/2)
	start := clock.Now()
	mustSync(t, fol)
	if !fol.InLease() {
		t.Fatalf("no lease after a pass with a %s window", window)
	}
	admin := &server.Client{BaseURL: c.primary.URL, Token: "admin"}
	before := c.untouched()
	if err := admin.SetPolicy("app", "tok-bob", tight); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("installing bob's token for app: %v, want a 409", err)
	}
	if took, after := time.Duration(clock.Now()-start), c.untouched(); took >= window/2 || after != before {
		t.Fatalf("the refused installation took %s and left %s (was %s): want it refused at once, changing nothing", took, after, before)
	}

	done := make(chan error, 1)
	go func() { done <- admin.SetPolicy("app", "tok-new", tight) }()
	waitFor(t, window/2, "the new token to resolve while the lease is held", func() bool {
		owner, ok := sys.TokenOwner("tok-new")
		return ok && owner == "app"
	})
	pullUntil(t, fol, done)
	if took := time.Duration(clock.Now() - start); took >= window {
		t.Fatalf("the installation returned %s after the lease was granted, at its expiry: it waited more than once", took)
	}
	if owner, ok := fol.System().TokenOwner("tok-new"); !ok || owner != "app" {
		t.Fatalf("the releasing pull left the replica's tok-new with %q, %v: want app's", owner, ok)
	}
	if e, err := fol.System().ExplainDecision("app", c.qm); err != nil || e.Admissible {
		t.Fatalf("replica after the releasing pull: (%+v, %v), want the tight policy", e, err)
	}
}

// TestSyncLogsOncePerOutage: an outage of the primary is logged when its
// first pass fails and when a pass succeeds again, whatever the number of
// failed passes between.
func TestSyncLogsOncePerOutage(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	var mu sync.Mutex
	var lines []string
	fol := openNode(t, node.Config{Follow: repl.FollowerOptions{
		Primary: c.proxy.url(), Token: "admin", Interval: time.Hour,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	}}).Follower()
	c.proxy.setBlocked(true)
	for range 3 {
		if err := fol.SyncOnce(); err == nil {
			t.Fatal("SyncOnce succeeded across a partition")
		}
	}
	c.proxy.setBlocked(false)
	mustSync(t, fol)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 || !strings.Contains(lines[0], "failing") || !strings.Contains(lines[1], "recovered") {
		t.Fatalf("three failed passes and a good one logged %q, want the outage's start and its end", lines)
	}
}
