package disclosure

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/obs"
)

// entryResult is everything one submission leaves behind, through any
// entry point: what the caller got back, what the counters and the outcome
// metrics moved by, and what the audit log recorded (clock fields zeroed).
type entryResult struct {
	Decision Decision
	Rows     []Tuple
	Err      string
	NoPolicy bool
	Stats    SystemStats
	Metrics  []string
	Audit    []obs.AuditRecord
}

// readAudit parses an audit file, zeroing the fields that hold a clock.
func readAudit(t *testing.T, path string) []obs.AuditRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []obs.AuditRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r obs.AuditRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		if r.TotalMs <= 0 && r.Outcome != "errored" {
			t.Errorf("audit record of a decided submission has no total time: %+v", r)
		}
		r.Time, r.LabelMs, r.DecideMs, r.EvalMs, r.TotalMs = "", 0, 0, 0, 0
		recs = append(recs, r)
	}
	return recs
}

// TestEntryPointsAgree is the one-pipeline contract: Submit, Decide (+
// Evaluate for the rows) and SubmitBatch of one are the same submission.
// For every outcome class they return the same Decision, rows and error,
// move Stats and the outcome metrics identically, and write the same
// audit record — a refusal's with its offending partitions, an admission's
// only past the slow-query threshold.
func TestEntryPointsAgree(t *testing.T) {
	admittedQ := MustParse("Free(t) :- Meetings(t, p)")
	refusedQ := MustParse("Q1(x) :- Meetings(x, 'Cathy')")
	cases := []struct {
		name      string
		principal string
		q         *Query
		slow      time.Duration
		outcome   string // "" = no audit record
		check     func(t *testing.T, r entryResult)
	}{
		{name: "admitted", principal: "app", q: admittedQ, check: func(t *testing.T, r entryResult) {
			if !r.Decision.Allowed || r.Decision.Refusal != nil || len(r.Rows) != 3 || r.Err != "" {
				t.Errorf("admitted = %+v", r)
			}
		}},
		{name: "admitted slow", principal: "app", q: admittedQ, slow: time.Nanosecond, outcome: "admitted", check: func(t *testing.T, r entryResult) {
			if !r.Audit[0].Slow {
				t.Errorf("slow admission not marked slow: %+v", r.Audit[0])
			}
		}},
		{name: "refused", principal: "app", q: refusedQ, outcome: "refused", check: func(t *testing.T, r entryResult) {
			e := r.Decision.Refusal
			if r.Decision.Allowed || r.Rows != nil || r.Err != "" || e == nil {
				t.Fatalf("refused = %+v", r)
			}
			if e.Query != "Q1" || e.Admissible || e.Cumulative != "⊥" || len(e.Partitions) != 1 || !e.Partitions[0].Live {
				t.Errorf("refusal explanation = %+v", e)
			}
			a := r.Audit[0]
			if a.Node != "primary" || a.Principal != "app" || a.Fingerprint == "" || !reflect.DeepEqual(a.Offending, []string{"times"}) {
				t.Errorf("refusal audit record = %+v", a)
			}
		}},
		{name: "unknown principal", principal: "nobody", q: admittedQ, outcome: "errored", check: func(t *testing.T, r entryResult) {
			if r.Decision.Allowed || r.Rows != nil || !r.NoPolicy {
				t.Errorf("unknown principal = %+v", r)
			}
			if r.Stats.Cache.Hits+r.Stats.Cache.Misses != 0 {
				t.Errorf("unknown principal reached the label cache: %+v", r.Stats.Cache)
			}
		}},
		{name: "labeling error", principal: "app", q: unsafeQuery(), outcome: "errored", check: func(t *testing.T, r entryResult) {
			if r.Decision.Allowed || r.Rows != nil || !strings.Contains(r.Err, "labeling Bad") {
				t.Errorf("labeling error = %+v", r)
			}
		}},
	}
	entries := []struct {
		name string
		run  func(sys *System, principal string, q *Query) (Decision, []Tuple, error)
	}{
		{"Submit", func(sys *System, p string, q *Query) (Decision, []Tuple, error) { return sys.Submit(p, q) }},
		{"Decide+Evaluate", func(sys *System, p string, q *Query) (Decision, []Tuple, error) {
			dec, err := sys.Decide(p, q)
			if err != nil || !dec.Allowed {
				return dec, nil, err
			}
			rows, err := sys.Evaluate(q)
			return dec, rows, err
		}},
		{"SubmitBatch of one", func(sys *System, p string, q *Query) (Decision, []Tuple, error) {
			r := sys.SubmitBatch(p, []*Query{q})[0]
			return r.Decision, r.Answer.Rows(), r.Err
		}},
		{"SubmitPrepared of a memoized text", func(sys *System, p string, q *Query) (Decision, []Tuple, error) {
			pq := PrepareQuery(q)
			if q.Validate() == nil { // the one query no text parses to stays wrapped
				for i := 0; i < 3; i++ { // first sighting, admission, hit
					var err error
					if pq, err = sys.Prepare([]byte(q.String())); err != nil {
						return Decision{}, nil, err
					}
				}
				if st := sys.Stats().Memo; st.Hits != 1 || st.Entries != 1 {
					return Decision{}, nil, fmt.Errorf("three sightings left the memo at %s", st)
				}
			}
			r := sys.SubmitPrepared(p, []*Prepared{pq})[0]
			return r.Decision, r.Answer.Rows(), r.Err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first entryResult
			for i, e := range entries {
				sys, reg := metricsSystem(t)
				path := filepath.Join(t.TempDir(), "audit.jsonl")
				audit, err := obs.OpenAuditLog(path)
				if err != nil {
					t.Fatal(err)
				}
				sys.SetAudit(audit, tc.slow)
				dec, rows, err := e.run(sys, tc.principal, tc.q)
				audit.Close()

				got := entryResult{Decision: dec, Rows: rows, NoPolicy: errors.Is(err, ErrNoPolicy), Stats: sys.Stats(), Audit: readAudit(t, path)}
				if err != nil {
					got.Err = err.Error()
				}
				for _, line := range strings.Split(expose(t, reg), "\n") {
					if strings.HasPrefix(line, "disclosure_submissions_total") || strings.HasPrefix(line, "disclosure_submit_seconds_count") {
						got.Metrics = append(got.Metrics, line)
					}
				}
				// The plan cache is the one thing Decide leaves alone, the
				// memo the one thing only a text reaches.
				got.Stats.Plans, got.Stats.Memo = PlanCacheStats{}, cq.MemoStats{}
				// A record counts the rows of its own pipeline run, and
				// Decide's evaluates nothing.
				for k := range got.Audit {
					evaluated := len(rows)
					if e.name == "Decide+Evaluate" {
						evaluated = 0
					}
					if got.Audit[k].Rows != evaluated {
						t.Errorf("%s: audit record counts %d rows, its run evaluated %d", e.name, got.Audit[k].Rows, evaluated)
					}
					got.Audit[k].Rows = 0
				}
				if st := got.Stats; st.Queries != 1 || st.Admitted+st.Refused+st.Errored != 1 {
					t.Errorf("%s: Stats = %+v, want exactly one query with one outcome", e.name, st)
				}
				want := 0
				if tc.outcome != "" {
					want = 1
				}
				if len(got.Audit) != want || (want == 1 && got.Audit[0].Outcome != tc.outcome) {
					t.Fatalf("%s: audit records = %+v, want %d with outcome %q", e.name, got.Audit, want, tc.outcome)
				}
				tc.check(t, got)
				if i == 0 {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Errorf("%s differs from %s:\n got %+v\nwant %+v", e.name, entries[0].name, got, first)
				}
			}
		})
	}
}

// TestBatchIsSubmitInALoop: a batch of n is n submissions. A batch mixing
// an admit that retires a partition, a refusal, an isomorph of an earlier
// query and a labeling error returns, counts, measures and audits exactly
// what the same queries submitted one by one do on a fresh System — the
// label and plan caches included, which see one lookup per query, not one
// per canonical form.
func TestBatchIsSubmitInALoop(t *testing.T) {
	batch := []*Query{
		MustParse("A(t) :- Meetings(t, p)"),       // admitted: retires "contacts"
		MustParse("B(p, e) :- Contacts(p, e, r)"), // refused on live [meetings]
		MustParse("C(u) :- Meetings(u, q)"),       // A's isomorph: admitted
		unsafeQuery(),                             // labeling error
	}
	type outcome struct {
		Decision Decision
		Rows     []Tuple
		Err      string
	}
	type run struct {
		Outcomes []outcome
		Stats    SystemStats
		Metrics  []string
		Audit    []obs.AuditRecord
	}
	newOutcome := func(dec Decision, rows []Tuple, err error) outcome {
		o := outcome{Decision: dec, Rows: rows}
		if err != nil {
			o.Err = err.Error()
		}
		return o
	}
	do := func(submit func(sys *System) []outcome) run {
		sys, reg := metricsSystem(t)
		if err := sys.SetPolicy("wall", map[string][]string{"meetings": {"V1", "V2"}, "contacts": {"V3"}}); err != nil {
			t.Fatal(err)
		}
		base := sight(t, sys, batch[0])
		path := filepath.Join(t.TempDir(), "audit.jsonl")
		audit, err := obs.OpenAuditLog(path)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetAudit(audit, time.Nanosecond) // every submission is audited
		r := run{Outcomes: submit(sys)}
		audit.Close()
		r.Stats, r.Audit = since(sys.Stats(), base), readAudit(t, path)
		for _, line := range strings.Split(expose(t, reg), "\n") {
			for _, family := range []string{"disclosure_submissions_total", "disclosure_submit_seconds_count", "disclosure_submit_stage_seconds_count"} {
				if strings.HasPrefix(line, family) {
					r.Metrics = append(r.Metrics, line)
				}
			}
		}
		return r
	}

	loop := do(func(sys *System) (out []outcome) {
		for _, q := range batch {
			out = append(out, newOutcome(sys.Submit("wall", q)))
		}
		return out
	})
	batched := do(func(sys *System) (out []outcome) {
		for _, r := range sys.SubmitBatch("wall", batch) {
			out = append(out, newOutcome(r.Decision, r.Answer.Rows(), r.Err))
		}
		return out
	})

	o := loop.Outcomes
	if !o[0].Decision.Allowed || len(o[0].Rows) != 3 ||
		o[1].Decision.Allowed || o[1].Decision.Refusal == nil || !reflect.DeepEqual(o[1].Decision.Live, []string{"meetings"}) ||
		!o[2].Decision.Allowed || !reflect.DeepEqual(o[2].Rows, o[0].Rows) ||
		o[3].Decision.Allowed || !strings.Contains(o[3].Err, "labeling Bad") {
		t.Fatalf("submitted one by one: %+v, want [admitted, refused on live [meetings], admitted with A's rows, labeling error]", o)
	}
	if st := loop.Stats; st.Cache.Hits+st.Cache.Misses != 4 || st.Plans.Hits != 1 || st.Plans.Misses != 1 || len(loop.Audit) != 4 {
		t.Fatalf("submitted one by one: label cache %s, plan cache %+v, %d audit records; want 4 lookups, 1 plan hit + 1 miss, 4 records",
			st.Cache, st.Plans, len(loop.Audit))
	}
	if !reflect.DeepEqual(batched, loop) {
		t.Errorf("SubmitBatch differs from Submit in a loop:\nbatch %+v\n loop %+v", batched, loop)
	}
}

// TestRefusalExplainsItsOwnDecision checks every refusal's explanation
// against the decision it travels on: the live partitions the decision
// reports are exactly the explanation's live rows, and none of them
// dominates the label. First in one batch whose refusal is followed by an
// admit that retires a partition — an explanation built once the batch was
// decided shows the later state — then under a hammer: two principals,
// submitters of singles and batches racing a goroutine that keeps
// resetting the sessions, so an explanation read back after the decision
// (from whatever the session had become) disagrees with it. Run with -race.
func TestRefusalExplainsItsOwnDecision(t *testing.T) {
	sys := concurrentTestSystem(t)
	policy := map[string][]string{"W1": {"V1", "V2"}, "W2": {"V3"}, "W3": {"V2"}}
	a := MustParse("A(t, p) :- Meetings(t, p)")    // W1 only
	b := MustParse("B(p, e) :- Contacts(p, e, r)") // W2 only
	c := MustParse("C(t) :- Meetings(t, p)")       // W1 or W3
	var mu sync.Mutex
	var refused, admitted int
	check := func(r BatchResult) {
		t.Helper()
		if r.Err != nil {
			t.Errorf("submission failed: %v", r.Err)
			return
		}
		e := r.Decision.Refusal
		mu.Lock()
		defer mu.Unlock()
		if r.Decision.Allowed {
			admitted++
			if e != nil {
				t.Errorf("admitted decision carries a refusal: %+v", e)
			}
			return
		}
		refused++
		if e == nil || e.Admissible {
			t.Errorf("refused decision carries explanation %+v", e)
			return
		}
		var live []string
		for _, p := range e.Partitions {
			if p.Live {
				live = append(live, p.Name)
				if p.Dominates {
					t.Errorf("refusal of %s explains a live dominating partition %s", e.Query, p.Name)
				}
			}
		}
		if !reflect.DeepEqual(live, r.Decision.Live) {
			t.Errorf("refusal of %s: decided on live %v, explained live %v", e.Query, r.Decision.Live, live)
		}
	}

	if err := sys.SetPolicy("p0", policy); err != nil {
		t.Fatal(err)
	}
	batch := sys.SubmitBatch("p0", []*Query{c, b, a})
	if got := batch[1].Decision; got.Allowed || !reflect.DeepEqual(got.Live, []string{"W1", "W3"}) || !batch[2].Decision.Allowed {
		t.Fatalf("batch [C, B, A] = %+v, want B refused on live [W1 W3] and A admitted after it", batch)
	}
	for _, r := range batch {
		check(r)
	}

	principals := []string{"p0", "p1"}
	if err := sys.SetPolicy("p1", policy); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{a, b, c}
	stop := make(chan struct{})
	var resetters, submitters sync.WaitGroup
	for _, p := range principals {
		resetters.Add(1)
		go func() {
			defer resetters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := sys.SetPolicy(p, policy); err != nil {
					t.Errorf("SetPolicy: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 8; w++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			p := principals[w%2]
			for i := 0; i < 300; i++ {
				q := queries[(w+i)%3]
				if i%3 == 2 {
					for _, r := range sys.SubmitBatch(p, []*Query{q, queries[(w+i+1)%3]}) {
						check(r)
					}
					continue
				}
				dec, _, err := sys.Submit(p, q)
				check(BatchResult{Decision: dec, Err: err})
			}
		}()
	}
	submitters.Wait()
	close(stop)
	resetters.Wait()
	if refused < 10 || admitted < 10 {
		t.Fatalf("hammer saw %d refusals and %d admissions: not the interleaving this test is for", refused, admitted)
	}
}
