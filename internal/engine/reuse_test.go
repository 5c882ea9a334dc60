package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/schema"
)

// reuseCounts reads the engine's answer counters: how many planned
// evaluations reused a memoized answer and how many executed.
func reuseCounts() (reused, executed uint64) {
	return metricAnswers[answerReused].Value(), metricAnswers[answerExecuted].Value()
}

// randomSchema builds 2–4 relations R0, R1, … of arity 1–3.
func randomSchema(rng *rand.Rand) *schema.Schema {
	rels := make([]*schema.Relation, 2+rng.Intn(3))
	for i := range rels {
		attrs := make([]string, 1+rng.Intn(3))
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		rels[i] = schema.MustRelation(fmt.Sprintf("R%d", i), attrs...)
	}
	return schema.MustNew(rels...)
}

// randomPlanQuery builds a conjunctive query of 1–3 atoms over s, drawing
// arguments from a small variable pool and the value domain v0…v5 (and now
// and then a constant no row carries); about a fifth are boolean.
func randomPlanQuery(rng *rand.Rand, s *schema.Schema, name string) *cq.Query {
	rels := s.Relations()
	var body []cq.Atom
	var vars []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		r := rels[rng.Intn(len(rels))]
		args := make([]cq.Term, r.Arity())
		for j := range args {
			switch rng.Intn(6) {
			case 0:
				args[j] = cq.C(fmt.Sprintf("v%d", rng.Intn(6)))
			case 1:
				if rng.Intn(4) == 0 {
					args[j] = cq.C("never-loaded")
					break
				}
				fallthrough
			default:
				v := []string{"x", "y", "z", "w"}[rng.Intn(4)]
				args[j] = cq.V(v)
				if !slices.Contains(vars, v) {
					vars = append(vars, v)
				}
			}
		}
		body = append(body, cq.NewAtom(r.Name(), args...))
	}
	var head []cq.Term
	if rng.Intn(5) > 0 {
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				head = append(head, cq.V(v))
			}
		}
	}
	q, err := cq.NewQuery(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// loadRandom inserts up to four rows of values v0…v5 into each relation in
// rels, in one batch.
func loadRandom(t *testing.T, db *Database, rng *rand.Rand, rels []*schema.Relation) {
	t.Helper()
	err := db.Load(func(ld *Loader) error {
		for _, r := range rels {
			for i := 0; i < 1+rng.Intn(4); i++ {
				vals := make([]string, r.Arity())
				for j := range vals {
					vals[j] = fmt.Sprintf("v%d", rng.Intn(6))
				}
				if err := ld.Insert(r.Name(), vals...); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnswerReuseDifferential drives random plans through evaluations at the
// current snapshot and at older pinned ones, interleaved with loads into
// random subsets of the relations, collections at random points, and
// answers held or dropped at random, and requires every answer — reused or
// executed — to render exactly what the reference evaluator finds at its
// snapshot. Both paths must run. And, plan by plan, a load into a relation
// the plan does not read must keep its answer reused, a load into one it
// reads must make it execute, and a collection between two evaluations at
// unchanged tables must keep it reused.
func TestAnswerReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reused0, executed0 := reuseCounts()
	for round := 0; round < 8; round++ {
		s := randomSchema(rng)
		db := NewDatabase(s)
		loadRandom(t, db, rng, s.Relations())
		qs := make([]*cq.Query, 12)
		for i := range qs {
			qs[i] = randomPlanQuery(rng, s, fmt.Sprintf("Q%d_%d", round, i))
		}
		history := []*Snapshot{db.Snapshot()}
		var held []Answer
		for step := 0; step < 300; step++ {
			switch x := rng.Intn(10); {
			case x == 0:
				var rels []*schema.Relation
				for _, r := range s.Relations() {
					if rng.Intn(2) == 0 {
						rels = append(rels, r)
					}
				}
				loadRandom(t, db, rng, rels)
				history = append(history, db.Snapshot())
			case x == 1:
				runtime.GC()
			case x == 2:
				held = nil
			default:
				snap := db.Snapshot()
				if x < 5 {
					snap = history[rng.Intn(len(history))]
				}
				q := qs[rng.Intn(len(qs))]
				ans, err := db.EvalCanonicalAt(snap, cq.PrepareQuery(q))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := snap.EvalReference(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := ans.Rows(); !EqualResults(got, ref) {
					t.Fatalf("round %d step %d, %s: answer %v, reference %v", round, step, q, got, ref)
				}
				if rng.Intn(2) == 0 {
					held = append(held, ans)
				}
			}
		}
		runtime.KeepAlive(held)

		// A load decides reuse only through the relations the plan reads.
		for i, q := range qs {
			pq := cq.PrepareQuery(q)
			var read, other *schema.Relation
			for _, r := range s.Relations() {
				if slices.ContainsFunc(q.Body, func(a cq.Atom) bool { return a.Rel == r.Name() }) {
					read = r
				} else {
					other = r
				}
			}
			ans, err := db.EvalCanonicalAt(db.Snapshot(), pq)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*schema.Relation{other, read} {
				if r == nil {
					continue
				}
				vals := make([]string, r.Arity())
				for j := range vals {
					vals[j] = fmt.Sprintf("fresh%d_%d", round, i)
				}
				db.MustInsert(r.Name(), vals...)
				reused, executed := reuseCounts()
				snap := db.Snapshot()
				again, err := db.EvalCanonicalAt(snap, pq)
				if err != nil {
					t.Fatal(err)
				}
				reused1, executed1 := reuseCounts()
				if r == other && (reused1 != reused+1 || executed1 != executed) {
					t.Fatalf("%s: a load into %s, which it does not read, did not keep its answer reused", q, r.Name())
				}
				if r == read && (executed1 != executed+1 || reused1 != reused) {
					t.Fatalf("%s: a load into %s, which it reads, did not make it execute", q, r.Name())
				}
				ref, err := snap.EvalReference(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := again.Rows(); !EqualResults(got, ref) {
					t.Fatalf("%s after a load into %s: answer %v, reference %v", q, r.Name(), got, ref)
				}
				ans = again
			}
			runtime.KeepAlive(ans)
			runtime.GC()
			reused, executed := reuseCounts()
			if _, err := db.EvalCanonicalAt(db.Snapshot(), pq); err != nil {
				t.Fatal(err)
			}
			if r, e := reuseCounts(); r != reused+1 || e != executed {
				t.Fatalf("%s: a collection between two evaluations at unchanged tables made it execute", q)
			}
		}
	}
	reused, executed := reuseCounts()
	if reused == reused0 || executed == executed0 {
		t.Fatalf("%d answers reused and %d executed: both paths must run", reused-reused0, executed-executed0)
	}
}

// TestAnswerSurvivesCollection: a plan keeps its last answer itself, so an
// answer no caller holds any more survives a collection, and the next
// evaluation at unchanged tables reuses it.
func TestAnswerSurvivesCollection(t *testing.T) {
	db := vexecTestDB(t, rand.New(rand.NewSource(5)), 60)
	pq := cq.PrepareQuery(cq.MustParse("Q(a, c) :- R(a, b), S(b, c, d)"))
	snap := db.Snapshot()
	eval := func() int {
		ans, err := db.EvalCanonicalAt(snap, pq)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Len()
	}
	if n := eval(); n < 2 {
		t.Fatalf("%d rows; the answer must be a block of ids", n)
	}
	runtime.GC()
	reused, executed := reuseCounts()
	eval()
	if r, e := reuseCounts(); r != reused+1 || e != executed {
		t.Fatal("an evaluation at unchanged tables executed after a collection")
	}
}

// settle collects until read reports zero — until every plan no database
// holds any more has been collected and its cleanup has run.
func settle(t *testing.T, what string, read func() float64) {
	t.Helper()
	for i := 0; read() != 0; i++ {
		if i == 200 {
			t.Fatalf("%s still reads %.0f after every plan that could go was collected", what, read())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestAnswerMemoBudget: the last answers a database's plans keep are
// charged to its memo budget, and the gauge counts the charge. An answer
// larger than the budget leaves no record, so every evaluation of its plan
// executes. Concurrent evaluators at alternating snapshots never take the
// account below zero or past the budget. And once the plan cache has
// evicted every plan and the collector has run, the account and the gauge
// are back at zero.
func TestAnswerMemoBudget(t *testing.T) {
	// Plans of earlier tests' databases give their bytes back first, so the
	// gauge counts this database's alone.
	settle(t, "the gauge", metricMemoBytes.Value)
	db := vexecTestDB(t, rand.New(rand.NewSource(5)), 200)
	db.plans = newPlanCache(16)
	small := cq.PrepareQuery(cq.MustParse("Q(a) :- R(a, b)"))
	large := cq.PrepareQuery(cq.MustParse("Q(a, b, c, d) :- R(a, b), S(b, c, d)"))
	snap := db.Snapshot()
	idBytes := func(pq *cq.Prepared) int64 {
		ref, err := snap.EvalReference(pq.Query())
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(ref) * len(pq.Query().Head) * 4)
	}
	smallBytes, largeBytes := idBytes(small), idBytes(large)
	if smallBytes == 0 || largeBytes <= smallBytes {
		t.Fatalf("answers of %d and %d id bytes: want a non-empty small one and a larger one", smallBytes, largeBytes)
	}
	db.memo.budget = largeBytes - 1
	eval := func(pq *cq.Prepared) {
		if _, err := db.EvalCanonicalAt(snap, pq); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want int64) {
		t.Helper()
		if got := db.memo.bytes.Load(); got != want {
			t.Fatalf("the memo holds %d bytes, want %d", got, want)
		}
		if got := metricMemoBytes.Value(); got != float64(want) {
			t.Fatalf("the gauge reads %.0f, want %d", got, want)
		}
	}
	eval(small)
	check(smallBytes)
	for i := 0; i < 3; i++ {
		reused, executed := reuseCounts()
		eval(large)
		if r, e := reuseCounts(); r != reused || e != executed+1 {
			t.Fatalf("evaluation %d of an answer over the budget was not executed", i)
		}
	}
	check(smallBytes)
	reused, executed := reuseCounts()
	eval(small)
	if r, e := reuseCounts(); r != reused+1 || e != executed {
		t.Fatal("the answer under the budget was not reused")
	}

	// Concurrent evaluators at two snapshots differing in R and S replace
	// one another's records.
	db.memo.budget = memoBudget
	older := db.Snapshot()
	db.MustInsert("R", "fresh", "v1")
	db.MustInsert("S", "v1", "fresh", "v2")
	snaps := [2]*Snapshot{older, db.Snapshot()}
	stop := make(chan struct{})
	var watch, work sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := db.memo.bytes.Load(); n < 0 || n > memoBudget {
				t.Errorf("the memo holds %d bytes, outside [0, %d]", n, memoBudget)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			for i := 0; i < 200; i++ {
				pq := []*cq.Prepared{small, large}[(i+w)%2]
				if _, err := db.EvalCanonicalAt(snaps[(i/2+w)%2], pq); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	work.Wait()
	close(stop)
	watch.Wait()

	// Boolean plans hold no ids: enough of them evict every plan above, and
	// the collected plans' cleanups give the bytes back.
	for i := 0; i < 200; i++ {
		eval(cq.PrepareQuery(cq.MustParse(fmt.Sprintf("Q() :- R(a, 'x%d')", i))))
	}
	settle(t, "the memo account", func() float64 { return float64(db.memo.bytes.Load()) })
	settle(t, "the gauge", metricMemoBytes.Value)
	runtime.KeepAlive(db)
}

// TestTailBeyondBaseTailMax: a table whose tail outgrew baseTailMax but not
// a quarter of the table keeps its base, and both step kinds — a probe
// joined to an earlier binding, and an independent step with constants —
// find the tail's rows through its index, as the reference does.
func TestTailBeyondBaseTailMax(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.MustRelation("E", "src", "dst", "kind", "id")))
	load := func(from, to int) {
		err := db.Load(func(ld *Loader) error {
			for i := from; i < to; i++ {
				ld.MustInsert("E", fmt.Sprintf("n%d", i%50), fmt.Sprintf("n%d", (i*7)%50), fmt.Sprintf("k%d", i%3), fmt.Sprintf("e%d", i))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	load(0, 1000)
	load(1000, 1200)
	snap := db.Snapshot()
	e := snap.tables[db.relID["E"]]
	if tail := e.n - e.base.end; tail <= baseTailMax || tail*4 > e.n {
		t.Fatalf("E has %d rows, %d of them in the tail: want more than %d and at most a quarter", e.n, tail, baseTailMax)
	}
	for _, tc := range []struct {
		src    string
		probe  bool // the plan has a probe step, else only independent ones
		consts int  // the most constants any of its steps compares
	}{
		{"Q(a, b) :- E('n3', a, k, i), E(a, b, 'k1', j)", true, 1}, // constants filtered through the bitset
		{"Q(a, c) :- E('n3', a, k, i), E(a, c, k2, j)", true, 1},
		{"Q(b, i) :- E('n3', b, 'k2', i)", false, 2},
		{"Q(a) :- E(a, b, k, 'e1103')", false, 1}, // the one row is in the tail
		{"Q(b) :- E(b, b, k, i)", false, 0},       // a scan, with a within-row repeat
		{"Q(i, j) :- E(a, 'n21', 'k0', i), E(b, 'n7', 'k1', j)", false, 2},
	} {
		q := cq.MustParse(tc.src)
		p, err := db.plans.get(db, cq.PrepareQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		probe, consts := false, 0
		for _, st := range p.steps {
			probe = probe || st.probeCol >= 0
			consts = max(consts, len(st.consts))
		}
		if probe != tc.probe || consts != tc.consts {
			t.Fatalf("%s compiled to probe=%v with at most %d constants a step, want probe=%v and %d", tc.src, probe, consts, tc.probe, tc.consts)
		}
		got, err := db.EvalAt(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := snap.EvalReference(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 || !EqualResults(got, ref) {
			t.Fatalf("%s: planned %v, reference %v", tc.src, got, ref)
		}
	}
}
