package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/schema"
)

// reuseCounts reads the engine's answer counters: how many planned
// evaluations reused a memoized answer and how many executed in full.
func reuseCounts() (reused, executed uint64) {
	return metricAnswers[answerReused].Value(), metricAnswers[answerExecuted].Value()
}

// pathCounts reads every answer counter, indexed by path.
func pathCounts() (c [3]uint64) {
	for i, m := range metricAnswers {
		c[i] = m.Value()
	}
	return c
}

// tookPath runs eval and reports whether it moved the answer counter of
// path, and only it, by one.
func tookPath(path int, eval func()) bool {
	before := pathCounts()
	eval()
	after := pathCounts()
	for i := range after {
		want := before[i]
		if i == path {
			want++
		}
		if after[i] != want {
			return false
		}
	}
	return true
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
// and then a constant no row carries); about a third are self-joins, 2–3
// atoms over one relation, and about a fifth are boolean.
func randomPlanQuery(rng *rand.Rand, s *schema.Schema, name string) *cq.Query {
	rels := s.Relations()
	var body []cq.Atom
	var vars []string
	n, self := 1+rng.Intn(3), rng.Intn(3) == 0
	if self {
		n, rels = 2+rng.Intn(2), rels[rng.Intn(len(rels)):][:1]
	}
	for i := 0; i < n; i++ {
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

// bulkLoad inserts into r more rows of fresh values than it held, and more
// than baseTailMax: a load the delta path leaves to a full execution.
func bulkLoad(t *testing.T, db *Database, r *schema.Relation, tag string) {
	t.Helper()
	n := db.Snapshot().Table(r.Name()).Len() + baseTailMax + 1
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < n; i++ {
			vals := make([]string, r.Arity())
			for j := range vals {
				vals[j] = fmt.Sprintf("bulk%s_%d", tag, i)
			}
			if err := ld.Insert(r.Name(), vals...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnswerReuseDifferential drives random plans, self-joins among them,
// through evaluations at the current snapshot and at older pinned ones —
// evaluated after newer ones — interleaved with loads into random subsets
// of the relations, one bulk load, collections at random points, and
// answers held or dropped at random, and requires every answer — reused,
// merged or executed — to render exactly what the reference evaluator
// finds at its snapshot. Every path must run. Right after the bulk load,
// each plan that reads its relation executes in full. And, plan by plan, a
// load into a relation the plan does not read must keep its answer reused,
// a one-row load into one it reads must not reuse it but take the delta
// path — unless the answer is a satisfied one without head variables,
// which stays satisfied and is reused — and a collection between two
// evaluations at unchanged tables must keep it reused.
func TestAnswerReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	counts0 := pathCounts()
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
			case step == 150:
				r := s.Relations()[rng.Intn(len(s.Relations()))]
				bulkLoad(t, db, r, fmt.Sprint(round))
				history = append(history, db.Snapshot())
				for _, q := range qs {
					if !slices.ContainsFunc(q.Body, func(a cq.Atom) bool { return a.Rel == r.Name() }) {
						continue
					}
					pq := cq.PrepareQuery(q)
					p, err := db.plans.get(db, pq)
					if err != nil {
						t.Fatal(err)
					}
					want := answerExecuted
					if m := p.memo.rec.Load(); m != nil && m.rows == unitRow {
						want = answerReused
					}
					if !tookPath(want, func() { _, err = db.EvalCanonicalAt(db.Snapshot(), pq) }) || err != nil {
						t.Fatalf("%s: after a bulk load into %s, which it reads, the evaluation did not take path %d (err %v)", q, r.Name(), want, err)
					}
				}
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
			p, err := db.plans.get(db, pq)
			if err != nil {
				t.Fatal(err)
			}
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
				snap := db.Snapshot()
				want := answerReused
				if m := p.memo.rec.Load(); r == read && m.rows != unitRow {
					want = answerDelta
				}
				var again Answer
				if !tookPath(want, func() { again, err = db.EvalCanonicalAt(snap, pq) }) || err != nil {
					if r == other {
						t.Fatalf("%s: a load into %s, which it does not read, did not keep its answer reused (err %v)", q, r.Name(), err)
					}
					t.Fatalf("%s: a one-row load into %s, which it reads, did not take path %d (err %v)", q, r.Name(), want, err)
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
	counts := pathCounts()
	for path, n := range counts {
		if n == counts0[path] {
			t.Fatalf("answers by path %v, from %v: every path must run", counts, counts0)
		}
	}
}

// TestAnswerSurvivesCollection: a plan keeps its last answer itself, so an
// answer no caller holds any more survives a collection, and the next
// evaluation at unchanged tables reuses it.
func TestAnswerSurvivesCollection(t *testing.T) {
	db := vexecTestDB(t, rand.New(rand.NewSource(5)), 60)
	pq := cq.PrepareQuery(cq.MustParse("Q(a, c) :- R(a, b), S(b, c, d)"))
	sight(t, db, pq)
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
	sight(t, db, small)
	eval(small)
	check(smallBytes)
	sight(t, db, large)
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
		pq := cq.PrepareQuery(cq.MustParse(fmt.Sprintf("Q() :- R(a, 'x%d')", i)))
		sight(t, db, pq)
		eval(pq)
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

// TestDeltaEqualsExecution: after each small load, a plan's answer — merged
// on the delta path, or reused, or executed — is the block a full execution
// at the same snapshot gives, id for id and in the same order, and a merged
// block carries the measure a fresh measurement takes. Random plans,
// self-joins among them, over random schemas, after loads into random
// subsets of the relations that now and then intern a fresh value.
func TestDeltaEqualsExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	deltas := 0
	for round := 0; round < 6; round++ {
		s := randomSchema(rng)
		db := NewDatabase(s)
		loadRandom(t, db, rng, s.Relations())
		pqs := make([]*cq.Prepared, 16)
		plans := make([]*compiledPlan, len(pqs))
		for i := range pqs {
			pqs[i] = cq.PrepareQuery(randomPlanQuery(rng, s, fmt.Sprintf("Q%d_%d", round, i)))
			p, err := db.plans.get(db, pqs[i])
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = p
		}
		for load := 0; load < 40; load++ {
			err := db.Load(func(ld *Loader) error {
				for _, r := range s.Relations() {
					for i := rng.Intn(3) - 1; i > 0; i-- {
						vals := make([]string, r.Arity())
						for j := range vals {
							vals[j] = fmt.Sprintf("v%d", rng.Intn(6))
							if rng.Intn(5) == 0 {
								vals[j] = fmt.Sprintf("f%d_%d", round, load)
							}
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
			snap := db.Snapshot()
			for i, pq := range pqs {
				var ans Answer
				if tookPath(answerDelta, func() { ans, err = db.EvalCanonicalAt(snap, pq) }) {
					deltas++
					if b := ans.blk; b != nil && b != unitRow && b.size.Load() != measure(snap.dict, b.ids, sizeWord(0, true)) {
						t.Fatalf("%s: the merged block carries the measure %#x, a fresh one is %#x", pq.Query(), b.size.Load(), measure(snap.dict, b.ids, sizeWord(0, true)))
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				a := db.getArena()
				var full *answerBlock
				if plans[i].resolveConsts(db, a) {
					full = plans[i].execute(snap, a)
				}
				db.putArena(a)
				if got := ans.blk; (got == nil) != (full == nil) || got != nil && (got.n != full.n || !slices.Equal(got.ids, full.ids)) {
					want := plans[i].answer(snap, full)
					t.Fatalf("load %d, %s: answer %v, a full execution %v", load, pq.Query(), ans.Rows(), want.Rows())
				}
				ans.Size() // measured, as an encoder does, so the next merge carries it
			}
		}
	}
	t.Logf("%d evaluations took the delta path", deltas)
	if deltas < 200 {
		t.Fatalf("%d evaluations took the delta path: the test is vacuous", deltas)
	}
}

// TestDeltaHammer races readers at the current snapshot and at older
// pinned ones against a writer inserting one row at a time, so plans keep
// taking the delta path while evaluations at older snapshots execute in
// full beside them and must leave newer records in place. Every answer
// must render what the reference evaluator finds at its snapshot. Run
// under -race in CI.
func TestDeltaHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := vexecTestDB(t, rng, 40)
	qs := make([]*cq.Query, 12)
	for i := range qs {
		qs[i] = randomQuery(rand.New(rand.NewSource(int64(100+i))), fmt.Sprintf("D%d", i))
	}
	var mu sync.Mutex
	history := []*Snapshot{db.Snapshot()}
	deltas0 := metricAnswers[answerDelta].Value()
	var evals atomic.Int64
	var failed atomic.Bool // a reader gave up: the writer must not wait for it
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		since := evals.Load()
		for i := 0; i < 150; i++ {
			// Each insert waits for five evaluations finished since the
			// last one, so at least one began after it, whatever the four
			// readers had in flight: readers find tables that grew by a
			// row, never a burst of inserts no evaluation saw.
			for evals.Load() < since+5 && !failed.Load() {
				runtime.Gosched()
			}
			v := func(j int) string { return fmt.Sprintf("v%d", (i*j+i/3)%9) }
			switch i % 3 {
			case 0:
				db.MustInsert("R", v(1), v(2))
			case 1:
				db.MustInsert("S", v(2), v(3), v(5))
			default:
				db.MustInsert("T", v(7))
			}
			mu.Lock()
			history = append(history, db.Snapshot())
			mu.Unlock()
			since = evals.Load()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 100 {
						return
					}
				default:
				}
				snap := db.Snapshot()
				if rng.Intn(3) == 0 {
					mu.Lock()
					snap = history[rng.Intn(len(history))]
					mu.Unlock()
				}
				q := qs[rng.Intn(len(qs))]
				got, err := db.EvalAt(snap, q)
				if err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
				ref, err := snap.EvalReference(q)
				if err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
				if !EqualResults(got, ref) {
					t.Errorf("%s: answer %v, reference %v", q, got, ref)
					failed.Store(true)
					return
				}
				evals.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if metricAnswers[answerDelta].Value() == deltas0 {
		t.Fatal("no evaluation took the delta path")
	}
}

// TestOlderEvaluationKeepsNewerRecord: an evaluation pinned to a snapshot
// older than the plan's recorded answer executes in full and leaves the
// record in place, so the next evaluation at the current snapshot reuses
// it; an evaluation at a newer snapshot replaces it.
func TestOlderEvaluationKeepsNewerRecord(t *testing.T) {
	db := vexecTestDB(t, rand.New(rand.NewSource(7)), 60)
	pq := cq.PrepareQuery(cq.MustParse("Q(a, c) :- R(a, b), S(b, c, d)"))
	sight(t, db, pq)
	p, err := db.plans.get(db, pq)
	if err != nil {
		t.Fatal(err)
	}
	older := db.Snapshot()
	db.MustInsert("R", "v1", "fresh")
	cur := db.Snapshot()
	eval := func(snap *Snapshot) {
		if _, err := db.EvalCanonicalAt(snap, pq); err != nil {
			t.Fatal(err)
		}
	}
	eval(cur)
	held := p.memo.rec.Load()
	bytes := db.memo.bytes.Load()
	if !tookPath(answerExecuted, func() { eval(older) }) {
		t.Fatal("an evaluation at a snapshot older than the record did not execute in full")
	}
	if p.memo.rec.Load() != held || db.memo.bytes.Load() != bytes {
		t.Fatal("an evaluation at an older snapshot replaced the newer record")
	}
	if !tookPath(answerReused, func() { eval(cur) }) {
		t.Fatal("the evaluation at the current snapshot after an older one did not reuse")
	}
	db.MustInsert("S", "fresh", "v2", "v3")
	if !tookPath(answerDelta, func() { eval(db.Snapshot()) }) || p.memo.rec.Load() == held {
		t.Fatal("a one-row load did not take the delta path and record its answer")
	}
}
