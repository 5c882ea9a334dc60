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

// TestVexecDifferential drives random conjunctive queries through the
// block-vectorized executor and the pre-plan reference evaluator, and
// requires identical answer sets — plus agreement from the EvalEach
// visitor and EvalBool (the early-exit existence search).
func TestVexecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
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

			var visited []Tuple
			err = db.EvalEach(q, func(row Tuple) bool {
				visited = append(visited, append(Tuple(nil), row...))
				return true
			})
			if err != nil {
				t.Fatalf("EvalEach %s: %v", q, err)
			}
			if !EqualResults(vec, visited) {
				t.Fatalf("query %s: EvalEach %v != Eval %v", q, visited, vec)
			}

			sat, err := db.EvalBool(q)
			if err != nil {
				t.Fatalf("EvalBool %s: %v", q, err)
			}
			if sat != (len(vec) > 0) {
				t.Fatalf("query %s: EvalBool %v but Eval returned %d rows", q, sat, len(vec))
			}
		}
	}
}

// TestVexecEarlyStop: a visitor that returns false stops the iteration.
func TestVexecEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := vexecTestDB(t, rng, 100)
	q := cq.MustParse("Q(a, b) :- R(a, b)")
	n := 0
	if err := db.EvalEach(q, func(Tuple) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("visitor ran %d times, want 3", n)
	}
}

// TestEvalEachZeroAlloc is the hot-path allocation gate: with the plan
// cached, the canonical key held, and the snapshot pinned, a full
// evaluate-dedup-sort-visit cycle of the block executor must allocate
// nothing — the property the pooled arenas exist to provide. CI runs this
// test as the vectorized hot-path smoke.
func TestEvalEachZeroAlloc(t *testing.T) {
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
		name string
		src  string
	}{
		{"join", "Q(t) :- M(t, p), C(p, e, 'Intern')"},
		{"probe", "Q(e) :- C('p7', e, r)"},
		{"boolean", "Q() :- M(t, p), C(p, e, 'Intern')"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := cq.MustParse(tc.src)
			key := cq.CanonicalKey(q)
			snap := db.Snapshot()
			rows := 0
			visit := func(Tuple) bool { rows++; return true }
			// Warm the plan cache and the arena pool outside the measurement.
			if err := db.EvalEachCanonicalAt(snap, key, q, visit); err != nil {
				t.Fatal(err)
			}
			if rows == 0 {
				t.Fatalf("query %s returned no rows; the measurement would be vacuous", tc.src)
			}
			// A GC between runs may drop the pooled arena; disable it so the
			// measurement is deterministic.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(200, func() {
				if err := db.EvalEachCanonicalAt(snap, key, q, visit); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("cached-plan EvalEach allocated %.2f times per run, want 0", allocs)
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
	pc := db.plans.Load()

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

// TestVexecConcurrentHammer mixes lock-free readers (Eval, EvalEach,
// EvalBool), writers (Insert), and plan-cache replacement
// (SetPlanCacheCapacity) — run under -race in CI.
func TestVexecConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	db := vexecTestDB(t, rng, 60)
	qs := make([]*cq.Query, 24)
	for i := range qs {
		qs[i] = randomQuery(rand.New(rand.NewSource(int64(i))), fmt.Sprintf("H%d", i))
	}
	const iters = 300
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
				if err := db.EvalEach(q, func(Tuple) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.EvalBool(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.MustInsert("R", fmt.Sprintf("v%d", i%8), fmt.Sprintf("v%d", (i+3)%8))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			db.SetPlanCacheCapacity(16 + i%64)
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
	key := pq.Key
	snap := db.Snapshot()
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.EvalCanonicalAt(snap, pq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized-visit", func(b *testing.B) {
		b.ReportAllocs()
		visit := func(Tuple) bool { return true }
		for i := 0; i < b.N; i++ {
			if err := db.EvalEachCanonicalAt(snap, key, q, visit); err != nil {
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
