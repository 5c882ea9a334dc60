package engine

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

func planTestDB(t *testing.T) *Database {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("M", "time", "person"),
		schema.MustRelation("C", "person", "email", "position"),
	)
	db := NewDatabase(s)
	db.MustInsert("M", "9", "Jim")
	db.MustInsert("M", "10", "Cathy")
	db.MustInsert("C", "Jim", "jim@e.com", "Manager")
	db.MustInsert("C", "Cathy", "cathy@e.com", "Intern")
	return db
}

// TestPlanCacheSharesIsomorphs: queries equal up to variable renaming and
// atom reordering must compile once and share one plan-cache entry.
func TestPlanCacheSharesIsomorphs(t *testing.T) {
	db := planTestDB(t)
	variants := []string{
		"Q(t) :- M(t, p), C(p, e, 'Intern')",
		"Z(a) :- C(b, c, 'Intern'), M(a, b)",
		"W(x9) :- M(x9, y9), C(y9, z9, 'Intern')",
	}
	var want []Tuple
	for i, src := range variants {
		rows, err := db.Eval(cq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rows
			if len(want) != 1 || want[0][0] != "10" {
				t.Fatalf("base query = %v, want [[10]]", want)
			}
		} else if !EqualResults(rows, want) {
			t.Fatalf("isomorph %q = %v, want %v", src, rows, want)
		}
	}
	st := db.PlanStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("want 1 miss + 2 hits for isomorphic traffic, got %s", st)
	}
	if st.Entries != 1 {
		t.Fatalf("want a single resident plan, got %s", st)
	}
}

// TestPlanConstantResolvedLater: a plan compiled while its constant is
// unknown to the interner must start matching once the constant is
// inserted — the memoized resolution may not go stale-negative.
func TestPlanConstantResolvedLater(t *testing.T) {
	db := planTestDB(t)
	q := cq.MustParse("Q(t) :- M(t, 'Zoe')")
	rows, err := db.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("unknown constant matched %v", rows)
	}
	db.MustInsert("M", "14", "Zoe")
	rows, err = db.Eval(q)
	if err != nil || len(rows) != 1 || rows[0][0] != "14" {
		t.Fatalf("after insert: %v, %v (stale constant resolution?)", rows, err)
	}
}

// TestPlanHeadConstants: constants in the head render verbatim even when
// never interned.
func TestPlanHeadConstants(t *testing.T) {
	db := planTestDB(t)
	rows, err := db.Eval(cq.MustQuery("Q",
		[]cq.Term{cq.V("t"), cq.C("marker-never-inserted")},
		[]cq.Atom{cq.NewAtom("M", cq.V("t"), cq.C("Jim"))}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "9" || rows[0][1] != "marker-never-inserted" {
		t.Fatalf("head constants = %v", rows)
	}
}

// TestPlanCacheEviction: a bounded cache under a larger template space must
// evict and keep serving correct results.
func TestPlanCacheEviction(t *testing.T) {
	db := planTestDB(t)
	db.plans = newPlanCache(16) // one slot per shard
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			q := cq.MustParse(fmt.Sprintf("Q(t) :- M(t, p), C(p, e, 'pos%d')", i))
			if _, err := db.Eval(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.PlanStats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions on a 16-entry cache under 64 templates, got %s", st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("resident plans exceed capacity: %s", st)
	}
	// Correctness unaffected by eviction churn.
	rows, err := db.Eval(cq.MustParse("Q(t) :- M(t, p), C(p, e, 'Intern')"))
	if err != nil || len(rows) != 1 || rows[0][0] != "10" {
		t.Fatalf("post-eviction eval = %v, %v", rows, err)
	}
}

// TestPlanSelfJoin: one relation used twice with shared variables (the plan
// must check, not rebind, the repeated variable).
func TestPlanSelfJoin(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("E", "src", "dst"))
	db := NewDatabase(s)
	db.MustInsert("E", "a", "b")
	db.MustInsert("E", "b", "c")
	db.MustInsert("E", "b", "b")
	rows, err := db.Eval(cq.MustParse("P(x, z) :- E(x, y), E(y, z)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // a→c, a→b, b→c, b→b
		t.Fatalf("paths = %v, want 4", rows)
	}
	// Repeated variable within one atom: the diagonal.
	rows, err = db.Eval(cq.MustParse("D(x) :- E(x, x)"))
	if err != nil || len(rows) != 1 || rows[0][0] != "b" {
		t.Fatalf("diagonal = %v, %v", rows, err)
	}
}

// TestSnapshotEvalReference: the snapshot-level reference evaluation and
// the planned evaluation agree on a live handle across inserts.
func TestSnapshotEvalReference(t *testing.T) {
	db := planTestDB(t)
	q := cq.MustParse("Q(p, e) :- C(p, e, r)")
	snap := db.Snapshot()
	before, err := snap.EvalReference(q)
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("C", "Zoe", "zoe@e.com", "Intern")
	again, err := snap.EvalReference(q)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(before, again) {
		t.Fatalf("old snapshot changed under insert: %v vs %v", before, again)
	}
	planned, err := db.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(planned) != len(before)+1 {
		t.Fatalf("fresh eval = %v, want one more row than %v", planned, before)
	}
}
