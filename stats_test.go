package disclosure

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/cq"
)

// unsafeQuery builds a query that fails validation (a head variable that
// never occurs in the body), the only way a submission can reach the
// labeling-error path: parsed queries are always well-formed.
func unsafeQuery() *Query {
	return &cq.Query{
		Name: "Bad",
		Head: []Term{cq.V("x")},
		Body: []Atom{cq.NewAtom("Meetings", cq.V("t"), cq.V("p"))},
	}
}

// TestStatsIdentity drives every outcome class — admissions, refusals,
// no-policy errors, labeling errors, and batches mixing all four — and
// checks the quiescent accounting identity documented on SystemStats:
// Queries == Admitted + Refused + Errored.
func TestStatsIdentity(t *testing.T) {
	sys := figure1System(t)
	if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}

	admittedQ := MustParse("Free(t) :- Meetings(t, p)")
	refusedQ := MustParse("Q1(x) :- Meetings(x, 'Cathy')")

	sys.Submit("app", admittedQ)     // admitted
	sys.Submit("app", refusedQ)      // refused
	sys.Submit("nobody", admittedQ)  // errored: no policy
	sys.Submit("app", unsafeQuery()) // errored: labeling failure
	sys.SubmitBatch("app", []*Query{admittedQ, refusedQ, unsafeQuery()})
	sys.SubmitBatch("nobody", []*Query{admittedQ, refusedQ}) // all errored

	st := sys.Stats()
	if want := uint64(9); st.Queries != want {
		t.Fatalf("Queries = %d, want %d", st.Queries, want)
	}
	if st.Admitted != 2 || st.Refused != 2 || st.Errored != 5 {
		t.Fatalf("Admitted/Refused/Errored = %d/%d/%d, want 2/2/5", st.Admitted, st.Refused, st.Errored)
	}
	if st.Queries != st.Admitted+st.Refused+st.Errored {
		t.Fatalf("identity broken at rest: %d != %d + %d + %d", st.Queries, st.Admitted, st.Refused, st.Errored)
	}
}

// TestStatsMonotoneUnderLoad samples Stats while submissions race and
// checks that every counter is monotone, that outcomes never outrun
// Queries (Queries >= Admitted+Refused+Errored at every sample), and that
// the identity is exact once the system is quiescent.
func TestStatsMonotoneUnderLoad(t *testing.T) {
	sys := figure1System(t)
	if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		MustParse("Free(t) :- Meetings(t, p)"),
		MustParse("Q1(x) :- Meetings(x, 'Cathy')"),
		unsafeQuery(),
	}

	const workers, perWorker = 8, 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				principal := "app"
				if i%7 == 0 {
					principal = "nobody" // errored path
				}
				sys.Submit(principal, queries[(w+i)%len(queries)])
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	var prev SystemStats
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
		}
		st := sys.Stats()
		if st.Queries < prev.Queries || st.Admitted < prev.Admitted ||
			st.Refused < prev.Refused || st.Errored < prev.Errored {
			t.Fatalf("counter went backwards: %+v after %+v", st, prev)
		}
		if st.Admitted+st.Refused+st.Errored > st.Queries {
			t.Fatalf("outcomes outran queries: %+v", st)
		}
		prev = st
	}

	st := sys.Stats()
	if want := uint64(workers * perWorker); st.Queries != want {
		t.Fatalf("Queries = %d, want %d", st.Queries, want)
	}
	if st.Queries != st.Admitted+st.Refused+st.Errored {
		t.Fatalf("identity broken at rest: %+v", st)
	}
}

// TestStatsIdentityShardedDurable drives the same outcome classes through
// a durable System under concurrent submitters — the path where a
// decision is a write-ahead-logged, group-committed operation — and checks
// that the quiescent identity Queries == Admitted + Refused + Errored
// still holds exactly, then holds again after recovery re-derives the
// per-principal sessions. Durability must change where outcomes are
// recorded, never how many there are.
func TestStatsIdentityShardedDurable(t *testing.T) {
	s := MustSchema(
		MustRelation("Meetings", "time", "person"),
		MustRelation("Contacts", "person", "email", "position"),
	)
	views := []*Query{
		MustParse("V1(t, p) :- Meetings(t, p)"),
		MustParse("V2(t) :- Meetings(t, p)"),
		MustParse("V3(p, e, r) :- Contacts(p, e, r)"),
	}
	d, err := OpenDurable(t.TempDir(), DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatal(err)
	}
	sys := d.System()

	const principals = 6
	for i := 0; i < principals; i++ {
		if err := sys.SetPolicy(principal(i), map[string][]string{"times": {"V2"}}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*Query{
		MustParse("Free(t) :- Meetings(t, p)"),     // admitted
		MustParse("Q1(x) :- Meetings(x, 'Cathy')"), // refused under "times"
		unsafeQuery(), // errored: labeling failure
	}

	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := principal((w + i) % principals)
				if i%11 == 0 {
					p = "nobody" // errored: no policy
				}
				sys.Submit(p, queries[(w+i)%len(queries)])
			}
		}(w)
	}
	wg.Wait()

	st := sys.Stats()
	if want := uint64(workers * perWorker); st.Queries != want {
		t.Fatalf("Queries = %d, want %d", st.Queries, want)
	}
	if st.Queries != st.Admitted+st.Refused+st.Errored {
		t.Fatalf("identity broken at rest on durable system: %+v", st)
	}

	// A crash (a copy of the directory as it stands, reopened) and a
	// graceful Close both recover every session's security state exactly.
	sessions := func(sys *System) (state []string) {
		t.Helper()
		for i := 0; i < principals; i++ {
			live, err := sys.Session(principal(i))
			if err != nil {
				t.Fatal(err)
			}
			e, err := sys.ExplainDecision(principal(i), queries[0])
			if err != nil {
				t.Fatal(err)
			}
			state = append(state, fmt.Sprint(live, e.Cumulative))
		}
		return state
	}
	reopened := func(dir string) []string {
		t.Helper()
		d2, err := OpenDurable(dir, DurabilityOptions{}, s, views...)
		if err != nil {
			t.Fatalf("recovering OpenDurable: %v", err)
		}
		defer d2.Close()
		return sessions(d2.System())
	}
	want := sessions(sys)
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(d.Dir())); err != nil {
		t.Fatal(err)
	}
	if got := reopened(crashed); !slices.Equal(got, want) {
		t.Fatalf("after a crash: sessions %v, live system had %v", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopened(d.Dir()); !slices.Equal(got, want) {
		t.Fatalf("after a graceful Close: sessions %v, live system had %v", got, want)
	}
}

// principal names the i-th test principal.
func principal(i int) string { return "app-" + string(rune('a'+i)) }

// TestExplainDecision checks the structured explanation: a refused query's
// explanation names the offending live partitions and carries the session's
// cumulative disclosure, and explaining never mutates session state.
func TestExplainDecision(t *testing.T) {
	sys := figure1System(t)
	err := sys.SetPolicy("app", map[string][]string{
		"times":    {"V2"},
		"contacts": {"V3"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Admit a V2 query: the "contacts" partition is retired.
	if dec, _, err := sys.Submit("app", MustParse("Free(t) :- Meetings(t, p)")); err != nil || !dec.Allowed {
		t.Fatalf("Submit = %+v, %v", dec, err)
	}

	e, err := sys.ExplainDecision("app", MustParse("Q(p, e) :- Contacts(p, e, r)"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Admissible {
		t.Fatalf("contacts query admissible after times was chosen: %+v", e)
	}
	if e.Query != "Q" {
		t.Errorf("Query = %q, want Q", e.Query)
	}
	if e.Cumulative == "" || e.Cumulative == "⊥" {
		t.Errorf("cumulative disclosure missing after an accepted query: %q", e.Cumulative)
	}
	if got := e.Offending(); len(got) != 1 || got[0] != "times" {
		t.Errorf("Offending = %v, want [times]", got)
	}
	var contacts *PartitionStatus
	for i := range e.Partitions {
		if e.Partitions[i].Name == "contacts" {
			contacts = &e.Partitions[i]
		}
	}
	if contacts == nil || contacts.Live || !contacts.Dominates {
		t.Errorf("contacts partition should be retired but dominating: %+v", contacts)
	}

	// Explaining must not have advanced the session.
	if live, err := sys.Session("app"); err != nil || fmt.Sprint(live) != "[times]" {
		t.Errorf("Session after ExplainDecision = %v (%v), want [times]", live, err)
	}
	if again, err := sys.ExplainDecision("app", MustParse("Q(p, e) :- Contacts(p, e, r)")); err != nil || again.Cumulative != e.Cumulative {
		t.Errorf("cumulative after ExplainDecision = %q (%v), want %q", again.Cumulative, err, e.Cumulative)
	}
	// ErrNoPolicy for unknown principals, same as Submit.
	if _, err := sys.ExplainDecision("nobody", MustParse("Q(t) :- Meetings(t, p)")); err == nil {
		t.Error("ExplainDecision for unknown principal should fail")
	}
}
