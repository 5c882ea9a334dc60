package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

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
// the plan does not read must keep its answer reused, and a load into one it
// reads must make it execute.
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
		}
	}
	reused, executed := reuseCounts()
	if reused == reused0 || executed == executed0 {
		t.Fatalf("%d answers reused and %d executed: both paths must run", reused-reused0, executed-executed0)
	}
}

// TestAnswerDroppedExecutes: an answer no one holds any more is the
// collector's, and the next evaluation at unchanged tables executes again;
// one still held is reused.
func TestAnswerDroppedExecutes(t *testing.T) {
	db := vexecTestDB(t, rand.New(rand.NewSource(5)), 60)
	pq := cq.PrepareQuery(cq.MustParse("Q(a, c) :- R(a, b), S(b, c, d)"))
	snap := db.Snapshot()
	eval := func() Answer {
		ans, err := db.EvalCanonicalAt(snap, pq)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	ans := eval()
	if ans.Len() < 2 {
		t.Fatalf("%d rows; the answer must be a block of ids", ans.Len())
	}
	reused, executed := reuseCounts()
	held := eval()
	if r, e := reuseCounts(); r != reused+1 || e != executed {
		t.Fatal("an evaluation at unchanged tables, its last answer still held, executed")
	}
	runtime.KeepAlive(ans)
	runtime.KeepAlive(held)
	runtime.GC()
	eval()
	if r, e := reuseCounts(); r != reused+1 || e != executed+1 {
		t.Fatal("an evaluation whose last answer was collected did not execute")
	}
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
