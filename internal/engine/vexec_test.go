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
// call: with the plan cached, the query prepared and the snapshot pinned, a
// full evaluate-dedup-sort cycle of the block executor allocates exactly
// the Answer's block of ids — and nothing for a satisfied boolean query,
// whose answer holds none. The pooled arenas exist to provide this. CI runs
// this test as the hot-path smoke.
func TestEvalAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops sync.Pool puts at random, making allocation counts nondeterministic")
	}
	db := NewDatabase(schema.MustNew(
		schema.MustRelation("M", "time", "person"),
		schema.MustRelation("C", "person", "email", "position"),
	))
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < 200; i++ {
			ld.MustInsert("M", fmt.Sprint(i%24), fmt.Sprintf("p%d", i))
			ld.MustInsert("C", fmt.Sprintf("p%d", i), fmt.Sprintf("e%d", i), "Intern")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		src    string
		allocs float64
	}{
		{"join", "Q(t) :- M(t, p), C(p, e, 'Intern')", 1},
		{"probe", "Q(e) :- C('p7', e, r)", 1},
		{"boolean", "Q() :- M(t, p), C(p, e, 'Intern')", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pq := cq.PrepareQuery(cq.MustParse(tc.src))
			snap := db.Snapshot()
			// Warm the plan cache and the arena pool outside the measurement.
			ans, err := db.EvalCanonicalAt(snap, pq)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Len() == 0 {
				t.Fatalf("query %s returned no rows; the measurement would be vacuous", tc.src)
			}
			// A GC between runs may drop the pooled arena; disable it so the
			// measurement is deterministic.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := db.EvalCanonicalAt(snap, pq); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != tc.allocs {
				t.Fatalf("cached-plan EvalCanonicalAt allocated %.2f times per run, want %.0f", allocs, tc.allocs)
			}
		})
	}
}

// TestPlanCacheSingleflight: concurrent misses on one cold canonical key
// must resolve to the same compiled plan (one compilation shared by every
// caller) and leave exactly one resident entry.
func TestPlanCacheSingleflight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := vexecTestDB(t, rng, 50)
	q := cq.MustParse("Q(a, c) :- R(a, b), S(b, c, d), T(d)")
	pq := cq.PrepareQuery(q)
	pc := db.plans

	const workers = 32
	plans := make([]*compiledPlan, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			p, err := pc.get(db, pq)
			if err != nil {
				t.Error(err)
				return
			}
			plans[w] = p
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if plans[w] != plans[0] {
			t.Fatalf("worker %d received a different compiled plan: racing misses compiled more than once", w)
		}
	}
	if st := pc.c.Stats(); st.Entries != 1 {
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
