package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// figure1DB loads the dataset of Figure 1(a).
func figure1DB(t *testing.T) *Database {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("Meetings", "time", "person"),
		schema.MustRelation("Contacts", "person", "email", "position"),
	)
	db := NewDatabase(s)
	db.MustInsert("Meetings", "9", "Jim")
	db.MustInsert("Meetings", "10", "Cathy")
	db.MustInsert("Meetings", "12", "Bob")
	db.MustInsert("Contacts", "Jim", "jim@e.com", "Manager")
	db.MustInsert("Contacts", "Cathy", "cathy@e.com", "Intern")
	db.MustInsert("Contacts", "Bob", "bob@e.com", "Consultant")
	return db
}

func TestEvalFigure1Queries(t *testing.T) {
	db := figure1DB(t)
	// Q1(x) :- Meetings(x, 'Cathy') → {10}.
	rows, err := db.Eval(cq.MustParse("Q1(x) :- Meetings(x, 'Cathy')"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "10" {
		t.Errorf("Q1 = %v, want [[10]]", rows)
	}
	// Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern') → {10} (Cathy).
	rows, err = db.Eval(cq.MustParse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "10" {
		t.Errorf("Q2 = %v, want [[10]]", rows)
	}
	// V2 (projection): three times.
	rows, _ = db.Eval(cq.MustParse("V2(x) :- Meetings(x, y)"))
	if len(rows) != 3 {
		t.Errorf("V2 = %v", rows)
	}
}

func TestEvalSetSemantics(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	db := NewDatabase(s)
	db.MustInsert("R", "1", "x")
	db.MustInsert("R", "1", "y")
	db.MustInsert("R", "1", "x") // duplicate ignored
	if db.Table("R").Len() != 2 {
		t.Errorf("table has %d rows, want 2", db.Table("R").Len())
	}
	rows, err := db.Eval(cq.MustParse("Q(a) :- R(a, b)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "1" {
		t.Errorf("projection = %v, want one tuple", rows)
	}
}

func TestEvalBooleanAndConstants(t *testing.T) {
	db := figure1DB(t)
	// A satisfied boolean query answers one empty tuple, an unsatisfied one
	// none.
	rows, err := db.Eval(cq.MustParse("V13() :- Meetings(9, 'Jim')"))
	if err != nil || len(rows) != 1 || len(rows[0]) != 0 {
		t.Errorf("V13 = %v, %v; want one empty tuple", rows, err)
	}
	rows, _ = db.Eval(cq.MustParse("Nope() :- Meetings(9, 'Bob')"))
	if len(rows) != 0 {
		t.Errorf("absent tuple reported present: %v", rows)
	}
}

func TestEvalRepeatedVariables(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	db := NewDatabase(s)
	db.MustInsert("R", "1", "1")
	db.MustInsert("R", "1", "2")
	rows, err := db.Eval(cq.MustParse("D(x) :- R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "1" {
		t.Errorf("diagonal = %v", rows)
	}
}

func TestEvalSelfJoin(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("E", "src", "dst"))
	db := NewDatabase(s)
	db.MustInsert("E", "a", "b")
	db.MustInsert("E", "b", "c")
	db.MustInsert("E", "c", "d")
	rows, err := db.Eval(cq.MustParse("P2(x, z) :- E(x, y), E(y, z)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("paths = %v, want 2", rows)
	}
}

func TestEvalErrors(t *testing.T) {
	db := figure1DB(t)
	if _, err := db.Eval(cq.MustParse("Q(x) :- Unknown(x)")); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := db.Eval(cq.MustParse("Q(x) :- Meetings(x)")); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := db.Insert("Unknown", "a"); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if err := db.Insert("Meetings", "a"); err == nil {
		t.Error("insert with wrong arity accepted")
	}
}

func TestMaterializeAndExecuteRewriting(t *testing.T) {
	db := figure1DB(t)
	v1 := cq.MustParse("V1(x, y) :- Meetings(x, y)")
	// Rewriting of Q1 over V1: Q1(x) :- V1(x, 'Cathy').
	rows, err := ExecuteRewriting(db,
		[]cq.Term{cq.V("x")},
		[]cq.Atom{cq.NewAtom("V1", cq.V("x"), cq.C("Cathy"))},
		map[string]*cq.Query{"V1": v1})
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := db.Eval(cq.MustParse("Q1(x) :- Meetings(x, 'Cathy')"))
	if !EqualResults(rows, direct) {
		t.Errorf("rewriting = %v, direct = %v", rows, direct)
	}
}

func TestExecuteRewritingBooleanView(t *testing.T) {
	db := figure1DB(t)
	v5 := cq.MustParse("V5() :- Meetings(x, y)")
	rows, err := ExecuteRewriting(db, nil,
		[]cq.Atom{{Rel: "V5"}},
		map[string]*cq.Query{"V5": v5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("boolean rewriting = %v, want satisfied", rows)
	}
	// Empty database → unsatisfied.
	s := schema.MustNew(
		schema.MustRelation("Meetings", "time", "person"),
		schema.MustRelation("Contacts", "person", "email", "position"),
	)
	empty := NewDatabase(s)
	rows, err = ExecuteRewriting(empty, nil,
		[]cq.Atom{{Rel: "V5"}},
		map[string]*cq.Query{"V5": v5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("boolean rewriting on empty db = %v, want unsatisfied", rows)
	}
}

func TestExecuteRewritingErrors(t *testing.T) {
	db := figure1DB(t)
	if _, err := ExecuteRewriting(db, nil, []cq.Atom{{Rel: "Missing"}}, nil); err == nil {
		t.Error("unknown view accepted")
	}
	v5 := cq.MustParse("V5() :- Meetings(x, y)")
	if _, err := ExecuteRewriting(db, nil,
		[]cq.Atom{cq.NewAtom("V5", cq.V("x"))},
		map[string]*cq.Query{"V5": v5}); err == nil {
		t.Error("boolean view with arguments accepted")
	}
}

func TestTableAllIndependentTuples(t *testing.T) {
	db := figure1DB(t)
	rows := slices.Collect(db.Table("Meetings").All())
	if len(rows) != 3 {
		t.Fatalf("All yielded %d rows, want 3", len(rows))
	}
	rows[0][0] = "corrupted"
	fresh := slices.Collect(db.Table("Meetings").All())
	if fresh[0][0] == "corrupted" {
		t.Error("All leaked mutable storage")
	}
	// Early termination must not wedge the iterator.
	count := 0
	for range db.Table("Meetings").All() {
		count++
		break
	}
	if count != 1 {
		t.Errorf("early break iterated %d rows", count)
	}
}

func TestTableViewIsSnapshot(t *testing.T) {
	db := figure1DB(t)
	view := db.Table("Meetings")
	db.MustInsert("Meetings", "14", "Erin")
	if view.Len() != 3 {
		t.Errorf("old view sees %d rows, want 3", view.Len())
	}
	if db.Table("Meetings").Len() != 4 {
		t.Errorf("fresh view sees %d rows, want 4", db.Table("Meetings").Len())
	}
}

func TestLoadPublishesOnce(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	db := NewDatabase(s)
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < 100; i++ {
			if err := ld.Insert("R", fmt.Sprint(i), fmt.Sprint(i%7)); err != nil {
				return err
			}
		}
		ld.MustInsert("R", "0", "0") // duplicate, ignored
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Table("R").Len(); got != 100 {
		t.Fatalf("loaded %d rows, want 100", got)
	}
	rows, err := db.Eval(cq.MustParse("Q(b) :- R('13', b)"))
	if err != nil || len(rows) != 1 || rows[0][0] != "6" {
		t.Fatalf("point query after load = %v, %v", rows, err)
	}
	// A failing loader still publishes the rows inserted before the error.
	db2 := NewDatabase(s)
	wantErr := db2.Load(func(ld *Loader) error {
		ld.MustInsert("R", "x", "y")
		return ld.Insert("R", "only-one-value")
	})
	if wantErr == nil {
		t.Fatal("arity error swallowed")
	}
	if got := db2.Table("R").Len(); got != 1 {
		t.Fatalf("partial load published %d rows, want 1", got)
	}
}

func TestIndexMaintenanceOnInsert(t *testing.T) {
	// An index probe must see tuples inserted after a previous evaluation
	// built the index (the tail of rows past the index base is scanned).
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	db := NewDatabase(s)
	db.MustInsert("R", "1", "x")
	q := cq.MustParse("Q(b) :- R('1', b)")
	rows, err := db.Eval(q)
	if err != nil || len(rows) != 1 {
		t.Fatalf("first eval: %v %v", rows, err)
	}
	db.MustInsert("R", "1", "y")
	rows, err = db.Eval(q)
	if err != nil || len(rows) != 2 {
		t.Fatalf("eval after insert: %v %v (stale index?)", rows, err)
	}
}

func TestJoinOrderIndependence(t *testing.T) {
	// The greedy join order must not change results: evaluate a query and
	// its body-reversed twin.
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a", "b"),
	)
	db := NewDatabase(s)
	for i := 0; i < 20; i++ {
		db.MustInsert("R", fmt.Sprint(i%5), fmt.Sprint(i%3))
		db.MustInsert("S", fmt.Sprint(i%3), fmt.Sprint(i%7))
	}
	q1 := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	q2 := cq.MustParse("Q(x, z) :- S(y, z), R(x, y)")
	r1, err := db.Eval(q1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Eval(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(r1, r2) {
		t.Errorf("atom order changed results: %v vs %v", r1, r2)
	}
}

// TestTupleKeySeparatesNULs pins the ground truth the differential tests
// rest on: a value may hold any byte, NUL included, so ("\x00", "") and
// ("", "\x00") are two rows — to the reference evaluator's dedup and to
// EqualResults as much as to the block executor.
func TestTupleKeySeparatesNULs(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.MustRelation("R", "a", "b")))
	db.MustInsert("R", "\x00", "")
	db.MustInsert("R", "", "\x00")
	q := cq.MustParse("Q(x, y) :- R(x, y)")
	got, err := db.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.EvalReference(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("block executor returned %d rows, reference %d, want 2 and 2", len(got), len(want))
	}
	if !EqualResults(got, want) {
		t.Errorf("block executor %q differs from reference %q", got, want)
	}
	if EqualResults(got[:1], got[1:]) {
		t.Errorf("EqualResults conflates %q with %q", got[:1], got[1:])
	}
}

// TestRowSetAgainstMap holds a table's set semantics to a map of rendered
// rows across many growths of the row set: random rows over a small value
// space, so most inserts are duplicates of rows inserted long before, and
// values that differ only in where one ends and the next begins.
func TestRowSetAgainstMap(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.MustRelation("R", "a", "b", "c")))
	rng := rand.New(rand.NewSource(5))
	vals := []string{"", "a", "b", "ab", "a\x00", "\x00a", "c", "abc"}
	model := make(map[[3]string]bool)
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < 4000; i++ {
			row := [3]string{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))], fmt.Sprint(rng.Intn(40))}
			model[row] = true
			if err := ld.Insert("R", row[:]...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Eval(cq.MustParse("Q(a, b, c) :- R(a, b, c)"))
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Table("R").Len(); n != len(model) || len(rows) != len(model) {
		t.Fatalf("the table holds %d rows and answers %d, the model %d", n, len(rows), len(model))
	}
	for _, r := range rows {
		if !model[[3]string{r[0], r[1], r[2]}] {
			t.Fatalf("row %q was never inserted", r)
		}
	}
}
