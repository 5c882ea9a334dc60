package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disclosure "repro"
)

// startServer wires a Server over the paper's Figure-1 schema, serves it on
// an ephemeral port, and returns it with its base URL. The server is shut
// down when the test finishes.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s := disclosure.MustSchema(
		disclosure.MustRelation("Meetings", "time", "person"),
		disclosure.MustRelation("Contacts", "person", "email", "position"),
	)
	sys, err := disclosure.NewSystem(s,
		disclosure.MustParse("V1(t, p) :- Meetings(t, p)"),
		disclosure.MustParse("V2(t) :- Meetings(t, p)"),
		disclosure.MustParse("V3(p, e, r) :- Contacts(p, e, r)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.LoadBatch(func(ld *disclosure.Loader) error {
		ld.MustInsert("Meetings", "9", "Jim")
		ld.MustInsert("Meetings", "10", "Cathy")
		ld.MustInsert("Contacts", "Jim", "jim@e.com", "Manager")
		ld.MustInsert("Contacts", "Cathy", "cathy@e.com", "Intern")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.AdminToken == "" {
		opts.AdminToken = "admin-tok"
	}
	srv, err := New(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, "http://" + l.Addr().String()
}

func TestServerEndToEnd(t *testing.T) {
	_, base := startServer(t, Options{})
	admin := &Client{BaseURL: base, Token: "admin-tok"}

	// Two principals with different policies: scheduler may only learn
	// meeting times; audit-app has a Chinese-Wall choice between the
	// full calendar and the contact list.
	if err := admin.SetPolicy("scheduler", "sched-tok", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	err := admin.SetPolicy("audit-app", "audit-tok", map[string][]string{
		"calendar": {"V1", "V2"},
		"contacts": {"V3"},
	})
	if err != nil {
		t.Fatal(err)
	}

	sched := &Client{BaseURL: base, Token: "sched-tok"}
	audit := &Client{BaseURL: base, Token: "audit-tok"}

	// Admitted: the times query returns rows.
	res, err := sched.Submit("Free(t) :- Meetings(t, p)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed || len(res.Rows) != 2 || res.Refusal != nil {
		t.Fatalf("times query: %+v", res)
	}

	// Refused: the person-revealing query carries a structured refusal
	// body naming the offending partition and the cumulative disclosure.
	res, err = sched.Submit("Q1(x) :- Meetings(x, 'Cathy')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowed || res.Rows != nil || res.Error != "" {
		t.Fatalf("refusal: %+v", res)
	}
	if res.Refusal == nil {
		t.Fatal("refusal body missing")
	}
	if res.Refusal.Admissible || res.Refusal.Label == "" {
		t.Errorf("refusal explanation: %+v", res.Refusal)
	}
	if got := res.Refusal.Offending(); len(got) != 1 || got[0] != "times" {
		t.Errorf("offending partitions = %v, want [times]", got)
	}
	// The cumulative label is the ℓ⁺ set of the accepted times query —
	// every view that determines it (both V1 and V2 do).
	if !strings.Contains(res.Refusal.Cumulative, "V2") {
		t.Errorf("cumulative = %q, want it to mention V2 after the accepted times query", res.Refusal.Cumulative)
	}

	// Cumulative disclosure across the session: audit-app's first query
	// commits it to the calendar partition; the contacts partition
	// retires, so a contacts query that was initially admissible is now
	// refused.
	e, err := audit.Explain("P(p, e) :- Contacts(p, e, r)")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Admissible {
		t.Fatalf("contacts query should start admissible: %+v", e)
	}
	if res, err = audit.Submit("Cal(t, p) :- Meetings(t, p)"); err != nil || !res.Allowed {
		t.Fatalf("calendar query: %+v, %v", res, err)
	}
	res, err = audit.Submit("P(p, e) :- Contacts(p, e, r)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowed {
		t.Fatal("contacts query admitted after the calendar was chosen — Chinese Wall broken over HTTP")
	}
	if got := res.Refusal.Offending(); len(got) != 1 || got[0] != "calendar" {
		t.Errorf("offending = %v, want [calendar]", got)
	}
	for _, p := range res.Refusal.Partitions {
		if p.Name == "contacts" && (p.Live || !p.Dominates) {
			t.Errorf("contacts partition should be retired-but-dominating: %+v", p)
		}
	}

	// Batch: one request, decisions in order, one snapshot.
	batch, err := audit.SubmitBatch([]string{
		"B1(t) :- Meetings(t, p)",
		"B2(p, e) :- Contacts(p, e, r)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || !batch[0].Allowed || batch[1].Allowed {
		t.Fatalf("batch = %+v", batch)
	}

	// Stats: counters satisfy the quiescent identity and the gauges are
	// live.
	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != st.Admitted+st.Refused+st.Errored {
		t.Fatalf("stats identity broken: %+v", st)
	}
	if st.Admitted != 3 || st.Refused != 3 {
		t.Errorf("admitted/refused = %d/%d, want 3/3", st.Admitted, st.Refused)
	}
	if st.Principals != 2 || st.UptimeSeconds <= 0 {
		t.Errorf("gauges: %+v", st)
	}
}

func TestServerAuthAndLimits(t *testing.T) {
	_, base := startServer(t, Options{MaxRequestBytes: 512, MaxBatch: 4})
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}

	wantStatus := func(err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("error %v does not mention %q", err, frag)
		}
	}

	// Submissions need a known principal token; admin and garbage fail.
	_, err := (&Client{BaseURL: base, Token: "nope"}).Submit("Q(t) :- Meetings(t, p)")
	wantStatus(err, "401")
	_, err = (&Client{BaseURL: base}).Submit("Q(t) :- Meetings(t, p)")
	wantStatus(err, "401")
	_, err = (&Client{BaseURL: base, Token: "admin-tok"}).Submit("Q(t) :- Meetings(t, p)")
	wantStatus(err, "401")

	// Admin endpoints refuse principal tokens.
	err = (&Client{BaseURL: base, Token: "app-tok"}).SetPolicy("x", "t", map[string][]string{"p": {"V2"}})
	wantStatus(err, "401")
	err = (&Client{BaseURL: base, Token: "app-tok"}).Load([]LoadRow{{Rel: "Meetings", Values: []string{"11", "Ann"}}})
	wantStatus(err, "401")

	// A policy token equal to the admin token is rejected (it would
	// silently escalate the principal).
	err = admin.SetPolicy("evil", "admin-tok", map[string][]string{"p": {"V2"}})
	wantStatus(err, "400")

	app := &Client{BaseURL: base, Token: "app-tok"}

	// Parse errors are 400s.
	_, err = app.Submit("this is not datalog")
	wantStatus(err, "400")

	// The batch bound applies before any parsing or submission.
	big := make([]string, 5)
	for i := range big {
		big[i] = "Q(t) :- Meetings(t, p)"
	}
	_, err = app.SubmitBatch(big)
	wantStatus(err, "413")

	// The body-size limit refuses oversized requests.
	_, err = app.Submit("Q(t) :- Meetings(t, p), Meetings(t2, p2), " + strings.Repeat("Meetings(t3, p3), ", 40) + "Meetings(t4, p4)")
	wantStatus(err, "413")

	// A token already held by another principal is refused with 409, and
	// the refused request neither installs a policy nor disturbs the
	// holder's token.
	err = admin.SetPolicy("impostor", "app-tok", map[string][]string{"p": {"V2"}})
	wantStatus(err, "409")
	if _, err := (&Client{BaseURL: base, Token: "app-tok"}).Submit("Q(t) :- Meetings(t, p)"); err != nil {
		t.Errorf("holder's token broken by refused collision: %v", err)
	}

	// Token rotation: replacing the policy rotates the token and resets
	// the session; the old token stops working.
	if err := admin.SetPolicy("app", "app-tok-2", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err = app.Submit("Q(t) :- Meetings(t, p)"); err == nil {
		t.Error("old token still accepted after rotation")
	}
	if res, err := (&Client{BaseURL: base, Token: "app-tok-2"}).Submit("Q(t) :- Meetings(t, p)"); err != nil || !res.Allowed {
		t.Errorf("rotated token: %+v, %v", res, err)
	}

	// Removal: the principal and its token disappear.
	if err := admin.RemovePolicy("app"); err != nil {
		t.Fatal(err)
	}
	_, err = (&Client{BaseURL: base, Token: "app-tok-2"}).Submit("Q(t) :- Meetings(t, p)")
	wantStatus(err, "401")
}

func TestServerLoad(t *testing.T) {
	_, base := startServer(t, Options{})
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	app := &Client{BaseURL: base, Token: "app-tok"}

	before, err := app.Submit("Q(t) :- Meetings(t, p)")
	if err != nil {
		t.Fatal(err)
	}
	err = admin.Load([]LoadRow{
		{Rel: "Meetings", Values: []string{"11", "Ann"}},
		{Rel: "Meetings", Values: []string{"14", "Bea"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := app.Submit("Q(t) :- Meetings(t, p)")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows)+2 {
		t.Fatalf("rows after load = %d, want %d", len(after.Rows), len(before.Rows)+2)
	}
	// Bad rows fail atomically: nothing from a failing batch lands.
	err = admin.Load([]LoadRow{
		{Rel: "Meetings", Values: []string{"15", "Cy"}},
		{Rel: "Nope", Values: []string{"x"}},
	})
	if err == nil {
		t.Fatal("load of unknown relation should fail")
	}
	final, err := app.Submit("Q(t) :- Meetings(t, p)")
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Rows) != len(after.Rows) {
		t.Fatalf("failed load leaked rows: %d -> %d", len(after.Rows), len(final.Rows))
	}
}

// TestServerShutdownUnderLoad hammers the submit endpoint from many
// goroutines and shuts the server down mid-flight: requests that were
// accepted must complete with well-formed responses, later ones must fail
// with connection errors, and Serve must return http.ErrServerClosed. Run
// under -race this doubles as the data-race check on the serving path.
func TestServerShutdownUnderLoad(t *testing.T) {
	srv, base := startServer(t, Options{})
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	const principals = 4
	for i := 0; i < principals; i++ {
		p := fmt.Sprintf("app%d", i)
		if err := admin.SetPolicy(p, p+"-tok", map[string][]string{"times": {"V2"}}); err != nil {
			t.Fatal(err)
		}
	}

	var completed, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2*principals; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{
				BaseURL: base,
				Token:   fmt.Sprintf("app%d-tok", w%principals),
				HTTP:    &http.Client{Timeout: 5 * time.Second},
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Submit("Q(t) :- Meetings(t, p)")
				if err != nil {
					failed.Add(1)
					continue
				}
				if !res.Allowed {
					t.Errorf("unexpected refusal under load: %+v", res)
					return
				}
				completed.Add(1)
			}
		}(w)
	}

	// Let the load ramp, then shut down while requests are in flight.
	for completed.Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if completed.Load() < 50 {
		t.Errorf("only %d requests completed", completed.Load())
	}
	// Every accepted submission must be accounted for: the in-process
	// stats identity holds after the HTTP layer is gone.
	st := srv.System().Stats()
	if st.Queries != st.Admitted+st.Refused+st.Errored {
		t.Errorf("stats identity broken after shutdown: %+v", st)
	}
	if st.Admitted < uint64(completed.Load()) {
		t.Errorf("admitted %d < completed responses %d", st.Admitted, completed.Load())
	}
}

// TestRefusalLabelsOnce checks what a refused /v1/submit costs the label
// cache: one lookup, the decision's own. The refusal body is the
// explanation the decision carries, not a second labeling after the fact —
// and in a batch it describes the session each refusal was decided on, not
// the session after the whole batch.
func TestRefusalLabelsOnce(t *testing.T) {
	srv, base := startServer(t, Options{})
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	err := admin.SetPolicy("app", "app-tok", map[string][]string{
		"calendar": {"V1", "V2"}, "contacts": {"V3"}, "times": {"V2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	app := &Client{BaseURL: base, Token: "app-tok"}
	lookups := func() uint64 {
		c := srv.System().Stats().Cache
		return c.Hits + c.Misses
	}

	// [times query, contacts query, calendar query]: the first leaves
	// {calendar, times} live, the second is refused on exactly that, the
	// third then retires times.
	batch, err := app.SubmitBatch([]string{
		"T(t) :- Meetings(t, p)",
		"P(p, e) :- Contacts(p, e, r)",
		"Cal(t, p) :- Meetings(t, p)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || !batch[0].Allowed || batch[1].Allowed || !batch[2].Allowed {
		t.Fatalf("batch = %+v, want admitted, refused, admitted", batch)
	}
	var live []string
	for _, p := range batch[1].Refusal.Partitions {
		if p.Live {
			live = append(live, p.Name)
		}
	}
	if fmt.Sprint(live) != "[calendar times]" || fmt.Sprint(batch[1].Live) != "[calendar times]" {
		t.Errorf("refusal decided on live %v, explained live %v, want [calendar times] for both", batch[1].Live, live)
	}

	before := lookups()
	res, err := app.Submit("P(p, e) :- Contacts(p, e, r)")
	if err != nil || res.Allowed || res.Refusal == nil {
		t.Fatalf("contacts query = (%+v, %v), want refused with a body", res, err)
	}
	if got := lookups() - before; got != 1 {
		t.Errorf("a refused submit cost %d label-cache lookups, want 1", got)
	}
}
