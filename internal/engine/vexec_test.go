package engine

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// vexecTestDB builds a small random database over a fixed three-relation
// schema with a narrow value domain, so random queries join, miss, and
// duplicate often.
func vexecTestDB(t *testing.T, rng *rand.Rand, rows int) *Database {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a", "b", "c"),
		schema.MustRelation("T", "a"),
	)
	db := NewDatabase(s)
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(8)) }
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < rows; i++ {
			ld.MustInsert("R", val(), val())
			ld.MustInsert("S", val(), val(), val())
			if i%3 == 0 {
				ld.MustInsert("T", val())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// randomQuery builds a random conjunctive query over the vexec test schema:
// 1-4 atoms, arguments drawn from a small variable pool and the value
// domain (occasionally a constant no row carries), head variables drawn
// from the body.
func randomQuery(rng *rand.Rand, name string) *cq.Query {
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 3}, {"T", 1}}
	nAtoms := 1 + rng.Intn(4)
	vars := []string{"x", "y", "z", "w", "u"}
	var body []cq.Atom
	var bodyVars []string
	seen := map[string]bool{}
	for i := 0; i < nAtoms; i++ {
		rel := rels[rng.Intn(len(rels))]
		args := make([]cq.Term, rel.arity)
		for j := range args {
			switch rng.Intn(5) {
			case 0:
				args[j] = cq.C(fmt.Sprintf("v%d", rng.Intn(8)))
			case 1:
				args[j] = cq.C("never-inserted")
			default:
				v := vars[rng.Intn(len(vars))]
				args[j] = cq.V(v)
				if !seen[v] {
					seen[v] = true
					bodyVars = append(bodyVars, v)
				}
			}
		}
		body = append(body, cq.NewAtom(rel.name, args...))
	}
	var head []cq.Term
	for _, v := range bodyVars {
		if rng.Intn(2) == 0 {
			head = append(head, cq.V(v))
		}
	}
	if len(head) > 0 && rng.Intn(4) == 0 {
		head = append(head, cq.C("marker")) // head constant
	}
	// Roughly a fifth of the queries are boolean (empty head).
	q, err := cq.NewQuery(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// TestVexecDifferential drives random conjunctive queries — about a fifth
// of them boolean — through the block executor and the pre-plan reference
// evaluator, and requires identical answer sets.
func TestVexecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	queries, booleans, satisfied := 0, 0, 0
	for round := 0; round < 6; round++ {
		db := vexecTestDB(t, rng, 20+rng.Intn(120))
		for i := 0; i < 150; i++ {
			q := randomQuery(rng, fmt.Sprintf("Q%d_%d", round, i))

			vec, err := db.Eval(q)
			if err != nil {
				t.Fatalf("vec eval %s: %v", q, err)
			}
			ref, err := db.EvalReference(q)
			if err != nil {
				t.Fatalf("reference eval %s: %v", q, err)
			}
			if !EqualResults(vec, ref) {
				t.Fatalf("query %s: vectorized %v != reference %v", q, vec, ref)
			}
			queries++
			if len(q.Head) == 0 {
				booleans++
				if len(vec) > 0 {
					satisfied++
				}
			}
		}
	}
	// The boolean path is the block executor's too: the generator must
	// keep reaching it, satisfied and not.
	if booleans*10 < queries || satisfied == 0 || satisfied == booleans {
		t.Fatalf("%d of %d queries boolean, %d of those satisfied: the boolean path is not exercised", booleans, queries, satisfied)
	}
}

// TestEvalAnswerAllocs is the hot-path allocation gate on the daemon's own
// call, with the plan cached and the query prepared, one path at a time.
// Reused — the plan's tables unchanged since its last answer — an
// evaluation allocates nothing. Executed — pinned to a snapshot older than
// the plan's recorded answer, which the evaluation leaves in place — a full
// evaluate-dedup-sort cycle of the block executor allocates exactly what
// the answer keeps: its block (the ids and their header) and the memo
// record of it; a satisfied boolean query, whose answer holds no ids, only
// the record. A delta — one row more than the recorded answer counted —
// allocates the merged block and its record when the row adds an answer,
// and only the record when it adds none; a satisfied boolean answer stays
// satisfied as tables grow, and is reused. The pooled arenas exist to
// provide this. CI runs this test as the hot-path smoke.
func TestEvalAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops sync.Pool puts at random, making allocation counts nondeterministic")
	}
	db := NewDatabase(schema.MustNew(
		schema.MustRelation("M", "time", "person"),
		schema.MustRelation("C", "person", "email", "position"),
		schema.MustRelation("V", "value"),
	))
	// The rows a delta adds hold only strings V interned up front, so the
	// writer's dictionary does not grow under the measured runs.
	const runs = 200
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < 200; i++ {
			ld.MustInsert("M", fmt.Sprint(i%24), fmt.Sprintf("p%d", i))
			ld.MustInsert("C", fmt.Sprintf("p%d", i), fmt.Sprintf("e%d", i), "Intern")
		}
		for i := 0; i < 6*(runs+2); i++ {
			ld.MustInsert("V", fmt.Sprintf("s%d", i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	value := func() string { fresh++; return fmt.Sprintf("s%d", fresh) }
	// grow inserts rows one at a time and returns the snapshot after each,
	// every index column of every table built, so no evaluation builds one.
	grow := func(n int, row func() (string, []string)) []*Snapshot {
		snaps := make([]*Snapshot, n)
		for i := range snaps {
			rel, vals := row()
			db.MustInsert(rel, vals...)
			snaps[i] = db.Snapshot()
			for _, ts := range snaps[i].tables {
				for c := range ts.cols {
					ts.column(c)
				}
			}
		}
		return snaps
	}
	for _, tc := range []struct {
		name                  string
		src                   string
		adds, none            func() (string, []string) // a row that adds an answer, one that adds none
		executed, added, kept float64
	}{
		{"join", "Q(t) :- M(t, p), C(p, e, 'Intern')",
			func() (string, []string) { return "M", []string{value(), "p7"} },
			func() (string, []string) { return "M", []string{"99", value()} },
			3, 3, 1},
		{"probe", "Q(e) :- C('p7', e, r)",
			func() (string, []string) { return "C", []string{"p7", value(), "Intern"} },
			func() (string, []string) { return "C", []string{"p8", value(), "Intern"} },
			3, 3, 1},
		{"boolean", "Q() :- M(t, p), C(p, e, 'Intern')",
			func() (string, []string) { return "M", []string{value(), "p7"} },
			func() (string, []string) { return "M", []string{"99", value()} },
			1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pq := cq.PrepareQuery(cq.MustParse(tc.src))
			sight(t, db, pq)
			eval := func(snap *Snapshot) Answer {
				ans, err := db.EvalCanonicalAt(snap, pq)
				if err != nil {
					t.Fatal(err)
				}
				return ans
			}
			older := grow(1, tc.none)[0]
			cur := grow(1, tc.none)[0]
			// Warm the plan cache and the arena pool outside the
			// measurements (each one's first run warms the rest).
			if ans := eval(cur); ans.Len() == 0 {
				t.Fatalf("query %s returned no rows; the measurement would be vacuous", tc.src)
			}
			eval(older)
			// A GC between runs may drop the pooled arena; disable it so the
			// measurement is deterministic.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			measure := func(what string, want float64, path int, snaps []*Snapshot) {
				t.Helper()
				before := metricAnswers[path].Value()
				i := 0
				allocs := testing.AllocsPerRun(runs, func() {
					eval(snaps[min(i, len(snaps)-1)])
					i++
				})
				if allocs != want {
					t.Fatalf("%s: EvalCanonicalAt allocated %.2f times per run, want %.0f", what, allocs, want)
				}
				if n := metricAnswers[path].Value() - before; n != runs+1 {
					t.Fatalf("%s: %d of %d evaluations took the path measured", what, n, runs+1)
				}
			}
			measure("reused", 0, answerReused, []*Snapshot{cur})
			measure("executed", tc.executed, answerExecuted, []*Snapshot{older})
			growPath := answerDelta
			if tc.added == 0 {
				growPath = answerReused
			}
			before := eval(cur)
			measure("delta adding a row", tc.added, growPath, grow(runs+1, tc.adds))
			after := eval(db.Snapshot())
			if n, want := after.Len(), before.Len()+runs+1; tc.added > 0 && n != want {
				t.Fatalf("after %d deltas that each add a row, the answer has %d rows, want %d", runs+1, n, want)
			}
			measure("delta adding none", tc.kept, growPath, grow(runs+1, tc.none))
		})
	}
}

// TestAnswerSize: an answer's measure is the one its cells give — their
// bytes, and whether every one is plain — for random queries, head
// constants among them, over values plain and not, and again when read
// from the measure kept on a reused block.
func TestAnswerSize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := vexecTestDB(t, rng, 80)
	db.MustInsert("R", "v1", `a "quoted" <value> of more than twelve bytes`)
	db.MustInsert("S", "v2", "é", "v3")
	measured := 0
	for i := 0; i < 300; i++ {
		pq := cq.PrepareQuery(randomQuery(rng, fmt.Sprintf("Q%d", i)))
		for pass := 0; pass < 2; pass++ {
			ans, err := db.EvalCanonicalAt(db.Snapshot(), pq)
			if err != nil {
				t.Fatal(err)
			}
			bytes, plain := 0, true
			for _, row := range ans.Rows() {
				for _, cell := range row {
					bytes += len(cell)
					plain = plain && isPlain(cell)
				}
			}
			if gb, gp := ans.Size(); gb != bytes || gp != plain {
				t.Fatalf("%s, pass %d: Size() = %d, %v; the cells give %d, %v", pq.Query(), pass, gb, gp, bytes, plain)
			}
			if ans.Len() > 1 && !plain {
				measured++
			}
		}
	}
	if measured == 0 {
		t.Fatal("no answer held a cell that is not plain")
	}
}

// TestPlanCacheRacingMisses: concurrent misses on one cold canonical key
// may each compile, but they leave exactly one resident entry, and every
// caller's answer equals the reference evaluation.
func TestPlanCacheRacingMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := vexecTestDB(t, rng, 50)
	q := cq.MustParse("Q(a, c) :- R(a, b), S(b, c, d), T(d)")
	pq := cq.PrepareQuery(q)
	snap := db.Snapshot()
	want, err := snap.EvalReference(q)
	if err != nil || len(want) == 0 {
		t.Fatalf("reference: %d rows, %v; want a non-empty answer", len(want), err)
	}

	const workers = 32
	got := make([][]Tuple, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ans, err := db.EvalCanonicalAt(snap, pq)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = ans.Rows()
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range got {
		if !EqualResults(got[w], want) {
			t.Fatalf("worker %d: got %v, want the reference %v", w, got[w], want)
		}
	}
	if st := db.PlanStats(); st.Entries != 1 {
		t.Fatalf("want exactly one resident plan after the stampede, got %s", st)
	}
}

// TestVexecConcurrentHammer mixes lock-free readers (Eval, and EvalAt pinned
// to a snapshot the writer has since moved past) with a writer (Insert) —
// run under -race in CI.
func TestVexecConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	db := vexecTestDB(t, rng, 60)
	qs := make([]*cq.Query, 24)
	for i := range qs {
		qs[i] = randomQuery(rand.New(rand.NewSource(int64(i))), fmt.Sprintf("H%d", i))
	}
	const iters = 300
	snap := db.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := qs[(w*7+i)%len(qs)]
				if _, err := db.Eval(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.EvalAt(snap, q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.MustInsert("R", fmt.Sprintf("v%d", i%8), fmt.Sprintf("v%d", (i+3)%8))
		}
	}()
	wg.Wait()
}

// BenchmarkVexecChain measures the block executor on a deep join chain —
// the workload class the vectorization targets — against the reference
// evaluator.
func BenchmarkVexecChain(b *testing.B) {
	s := schema.MustNew(schema.MustRelation("E", "src", "dst"))
	db := NewDatabase(s)
	err := db.Load(func(ld *Loader) error {
		// A layered graph: 4 layers of 40 nodes, each node fanning out to 3
		// in the next layer, so a 3-hop chain touches real intermediate
		// blocks.
		for l := 0; l < 3; l++ {
			for i := 0; i < 40; i++ {
				for f := 0; f < 3; f++ {
					ld.MustInsert("E", fmt.Sprintf("n%d_%d", l, i), fmt.Sprintf("n%d_%d", l+1, (i*5+f*11)%40))
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	q := cq.MustParse("P(a, d) :- E(a, b), E(b, c), E(c, d)")
	pq := cq.PrepareQuery(q)
	snap := db.Snapshot()
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.EvalCanonicalAt(snap, pq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snap.EvalReference(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
