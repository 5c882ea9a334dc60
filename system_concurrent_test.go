package disclosure

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/label"
)

// concurrentTestSystem builds the Meetings/Contacts system used across the
// concurrency tests, with some data loaded.
func concurrentTestSystem(t *testing.T) *System {
	t.Helper()
	s := MustSchema(
		MustRelation("Meetings", "time", "person"),
		MustRelation("Contacts", "person", "email", "position"),
	)
	sys, err := NewSystem(s,
		MustParse("V1(t, p) :- Meetings(t, p)"),
		MustParse("V2(t) :- Meetings(t, p)"),
		MustParse("V3(p, e, r) :- Contacts(p, e, r)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sys.Insert("Meetings", fmt.Sprint(i%24), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Insert("Contacts", fmt.Sprintf("p%d", i), fmt.Sprintf("e%d", i), "Intern"); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestSubmitConcurrent hammers Submit from many goroutines over many
// principals; run with -race. Labels, decisions and evaluation all run
// concurrently; the per-principal counters must add up afterwards.
func TestSubmitConcurrent(t *testing.T) {
	sys := concurrentTestSystem(t)
	const principals = 8
	for p := 0; p < principals; p++ {
		// Alternate policies so both admissions and refusals occur.
		parts := map[string][]string{"times": {"V2"}}
		if p%2 == 0 {
			parts = map[string][]string{"all": {"V1", "V2", "V3"}}
		}
		if err := sys.SetPolicy(fmt.Sprintf("app%d", p), parts); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*Query{
		MustParse("Free(t) :- Meetings(t, p)"),
		MustParse("Who(p) :- Meetings(t, p)"),
		MustParse("Q(p, e) :- Contacts(p, e, r)"),
		MustParse("J(t, e) :- Meetings(t, p), Contacts(p, e, 'Intern')"),
	}
	const goroutines = 16
	const perGoroutine = 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				principal := fmt.Sprintf("app%d", (g+i)%principals)
				q := queries[(g*7+i)%len(queries)]
				if _, _, err := sys.Submit(principal, q); err != nil {
					errc <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Queries != goroutines*perGoroutine {
		t.Fatalf("queries = %d, want %d", st.Queries, goroutines*perGoroutine)
	}
	if st.Admitted+st.Refused != st.Queries {
		t.Fatalf("admitted %d + refused %d != queries %d", st.Admitted, st.Refused, st.Queries)
	}
	if st.Admitted == 0 || st.Refused == 0 {
		t.Fatalf("want both admissions and refusals, got %+v", st)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("want label-cache hits under repeated traffic, got %s", st.Cache)
	}
	// Per-principal session counters must agree with the global ones.
	var accepted, refused int
	for p := 0; p < principals; p++ {
		_, a, r, err := sys.Session(fmt.Sprintf("app%d", p))
		if err != nil {
			t.Fatal(err)
		}
		accepted += a
		refused += r
	}
	if uint64(accepted) != st.Admitted || uint64(refused) != st.Refused {
		t.Fatalf("session sums (%d, %d) disagree with stats (%d, %d)", accepted, refused, st.Admitted, st.Refused)
	}
}

// TestSubmitBatchMatchesSequential: the batch pipeline must produce exactly
// the decisions and rows of a sequential Submit loop on an identical system
// (decisions are applied in slice order).
func TestSubmitBatchMatchesSequential(t *testing.T) {
	mk := func() *System {
		sys := concurrentTestSystem(t)
		// A Chinese-Wall policy, so decision order matters: the first
		// admitted query retires one partition.
		if err := sys.SetPolicy("app", map[string][]string{
			"meetings": {"V1", "V2"},
			"contacts": {"V3"},
		}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	batch := []*Query{
		MustParse("Q1(t) :- Meetings(t, p)"),
		MustParse("Q2(p, e) :- Contacts(p, e, r)"),
		MustParse("Q3(t, p) :- Meetings(t, p)"),
		MustParse("Q4(p) :- Contacts(p, e, 'Intern')"),
		MustParse("Q5(t) :- Meetings(t, 'p1')"),
	}

	seq := mk()
	type want struct {
		allowed bool
		rows    int
	}
	wants := make([]want, len(batch))
	for i, q := range batch {
		dec, rows, err := seq.Submit("app", q)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{allowed: dec.Allowed, rows: len(rows)}
	}

	par := mk()
	results := par.SubmitBatch("app", batch)
	if len(results) != len(batch) {
		t.Fatalf("got %d results for %d queries", len(results), len(batch))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Decision.Allowed != wants[i].allowed || r.Answer.Len() != wants[i].rows {
			t.Fatalf("query %d: batch (allowed=%v, %d rows) != sequential (allowed=%v, %d rows)",
				i, r.Decision.Allowed, r.Answer.Len(), wants[i].allowed, wants[i].rows)
		}
	}
}

// TestInsertVsSubmitSnapshot hammers Insert and LoadBatch against
// concurrent Submit; run with -race. The writer inserts Meetings rows with
// increasing zero-padded times, so every admitted evaluation must see a
// contiguous prefix of the insertion history — the snapshot-read guarantee:
// no torn reads, no vanished rows, no partially visible batches.
func TestInsertVsSubmitSnapshot(t *testing.T) {
	s := MustSchema(MustRelation("Meetings", "time", "person"))
	sys, err := NewSystem(s, MustParse("V1(t, p) :- Meetings(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatal(err)
	}
	const total = 600
	// The writer brackets each step — one row or a batch of ten — with two
	// counters: upto is raised to the step's end before the step is
	// published, inserted after. An answer therefore holds at least the
	// inserted read before its Submit and at most the upto read after it.
	var inserted, upto atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for i < total {
			if i%3 == 0 && total-i >= 10 {
				// Batches must become visible atomically.
				start := i
				upto.Store(int64(start + 10))
				err := sys.LoadBatch(func(ld *Loader) error {
					for k := 0; k < 10; k++ {
						ld.MustInsert("Meetings", fmt.Sprintf("%06d", start+k), "p")
					}
					return nil
				})
				if err != nil {
					panic(err)
				}
				i += 10
			} else {
				upto.Store(int64(i + 1))
				if err := sys.Insert("Meetings", fmt.Sprintf("%06d", i), "p"); err != nil {
					panic(err)
				}
				i++
			}
			inserted.Store(int64(i))
		}
	}()

	q := MustParse("Q(t) :- Meetings(t, p)")
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := inserted.Load()
				dec, rows, err := sys.Submit("app", q)
				hi := upto.Load()
				if err != nil {
					errc <- err
					return
				}
				if !dec.Allowed {
					errc <- fmt.Errorf("hammer query refused")
					return
				}
				n := int64(len(rows))
				if n < lo || n > hi {
					errc <- fmt.Errorf("saw %d rows outside insert window [%d, %d]", n, lo, hi)
					return
				}
				for i, row := range rows {
					if row[0] != fmt.Sprintf("%06d", i) {
						errc <- fmt.Errorf("row %d = %q, want %06d (torn snapshot)", i, row[0], i)
						return
					}
				}
				if n == total {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSubmitBatchSingleSnapshot: every admitted query of one batch is
// evaluated against the same database snapshot, so a batch mixing two
// canonical forms with provably equal answer counts (project time only vs
// project time and person, over rows whose times are all distinct) must
// report identical counts in every slot even while a writer inserts
// between evaluations. Isomorphic slots additionally share one evaluation,
// so the cross-form comparison is what exercises the snapshot pin.
func TestSubmitBatchSingleSnapshot(t *testing.T) {
	s := MustSchema(MustRelation("Meetings", "time", "person"))
	sys, err := NewSystem(s, MustParse("V1(t, p) :- Meetings(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// Bounded writer: enough churn that every round races an insert,
		// small enough that per-round evaluation stays cheap under -race
		// (an unbounded writer outruns the dedup'd batch evaluation and
		// the table growth makes later rounds quadratic-ish).
		for i := 0; i < 20_000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Insert("Meetings", fmt.Sprint(i), "p"); err != nil {
				panic(err)
			}
		}
	}()
	batch := make([]*Query, 16)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = MustParse(fmt.Sprintf("Q%d(t) :- Meetings(t, p)", i))
		} else {
			batch[i] = MustParse(fmt.Sprintf("Q%d(t, q) :- Meetings(t, q)", i))
		}
	}
	for round := 0; round < 50; round++ {
		results := sys.SubmitBatch("app", batch)
		for i, r := range results {
			if r.Err != nil || !r.Decision.Allowed {
				t.Fatalf("round %d slot %d: %+v %v", round, i, r.Decision, r.Err)
			}
			if r.Answer.Len() != results[0].Answer.Len() {
				t.Fatalf("round %d: slot %d saw %d rows, slot 0 saw %d — batch mixed two snapshots",
					round, i, r.Answer.Len(), results[0].Answer.Len())
			}
		}
	}
	close(stop)
	<-writerDone
}

func TestSubmitNoPolicy(t *testing.T) {
	sys := concurrentTestSystem(t)
	dec, rows, err := sys.Submit("ghost", MustParse("Q(t) :- Meetings(t, p)"))
	if !errors.Is(err, ErrNoPolicy) {
		t.Fatalf("err = %v, want ErrNoPolicy", err)
	}
	if dec.Allowed || rows != nil {
		t.Fatalf("no-policy submission must be refused with no rows, got %+v, %v", dec, rows)
	}
	for i, r := range sys.SubmitBatch("ghost", []*Query{MustParse("Q(t) :- Meetings(t, p)")}) {
		if !errors.Is(r.Err, ErrNoPolicy) {
			t.Fatalf("batch result %d: err = %v, want ErrNoPolicy", i, r.Err)
		}
	}
	if _, err := sys.Explain("ghost", MustParse("Q(t) :- Meetings(t, p)")); !errors.Is(err, ErrNoPolicy) {
		t.Fatalf("Explain err = %v, want ErrNoPolicy", err)
	}
	if _, _, _, err := sys.Session("ghost"); !errors.Is(err, ErrNoPolicy) {
		t.Fatalf("Session err = %v, want ErrNoPolicy", err)
	}
}

// TestStatsCacheHitRate: repeated isomorphic submissions hit the cache and
// the snapshot reports a sensible hit rate.
func TestStatsCacheHitRate(t *testing.T) {
	sys := concurrentTestSystem(t)
	if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	// The same template under fresh variable names each time.
	for i := 0; i < 20; i++ {
		q := MustParse(fmt.Sprintf("Q%d(t%d) :- Meetings(t%d, p%d)", i, i, i, i))
		if _, _, err := sys.Submit("app", q); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Queries != 20 || st.Admitted != 20 {
		t.Fatalf("want 20 admitted submissions, got %+v", st)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 19 {
		t.Fatalf("want 19 hits + 1 miss for isomorphic traffic, got %s", st.Cache)
	}
	if rate := st.CacheHitRate(); rate < 0.94 || rate > 0.96 {
		t.Fatalf("hit rate = %f, want 0.95", rate)
	}
}

// TestSubmitBatchSharesIsomorphAnswer: isomorphic queries in one batch are
// evaluated once — one plan lookup per distinct form — and carry the same
// Answer.
func TestSubmitBatchSharesIsomorphAnswer(t *testing.T) {
	sys := concurrentTestSystem(t)
	if err := sys.SetPolicy("app", map[string][]string{"meetings": {"V1", "V2"}}); err != nil {
		t.Fatal(err)
	}
	batch := []*Query{
		MustParse("Q1(t) :- Meetings(t, p)"),
		MustParse("Q2(u) :- Meetings(u, q)"), // isomorphic to Q1
		MustParse("Q3(t) :- Meetings(t, 'p1')"),
	}
	res := sys.SubmitBatch("app", batch)
	for i, r := range res {
		if r.Err != nil || !r.Decision.Allowed {
			t.Fatalf("slot %d: %+v %v", i, r.Decision, r.Err)
		}
	}
	if plans := sys.Stats().Plans; plans.Hits+plans.Misses != 2 {
		t.Fatalf("a batch of two distinct forms looked up %d plans, want 2", plans.Hits+plans.Misses)
	}
	if res[0].Answer.Len() == 0 || !reflect.DeepEqual(res[0].Answer, res[1].Answer) {
		t.Fatal("isomorphic batch queries should share one evaluated answer")
	}
	if res[2].Answer.Len() == res[0].Answer.Len() {
		t.Fatal("distinct form unexpectedly matched the shared form's answer count")
	}
}

// TestSubmitBatchVsCacheResize hammers SubmitBatch, through a label cache
// small enough that twelve distinct forms evict each other on every round
// (the churn resizing the cache at run time used to cause; both caches are
// now fixed at construction), against a concurrent writer; run with -race.
// Decisions must stay correct throughout: caches only memoize, they never
// change outcomes.
func TestSubmitBatchVsCacheResize(t *testing.T) {
	sys := concurrentTestSystem(t)
	sys.labeler = label.NewCachedLabeler(label.NewLabeler(sys.cat), 16)
	// One partition, so every query of the batch stays admissible no matter
	// how earlier admissions advance the session.
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1", "V3"}}); err != nil {
		t.Fatal(err)
	}
	batch := make([]*Query, 12)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = MustParse(fmt.Sprintf("Q%d(t) :- Meetings(t, 'p%d')", i, i))
		} else {
			batch[i] = MustParse(fmt.Sprintf("Q%d(p, e) :- Contacts(p, e, 'r%d')", i, i))
		}
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Insert("Meetings", fmt.Sprint(i%24), fmt.Sprintf("x%d", i)); err != nil {
				panic(err)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 60; round++ {
				for i, r := range sys.SubmitBatch("app", batch) {
					if r.Err != nil {
						t.Errorf("round %d slot %d: %v", round, i, r.Err)
						return
					}
					if !r.Decision.Allowed {
						t.Errorf("round %d slot %d: within-policy query refused under cache churn", round, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if st := sys.Stats().Cache; st.Evictions == 0 {
		t.Fatalf("the label cache never evicted: %s", st)
	}
}
