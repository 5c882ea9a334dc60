package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// randomCQ generates a random conjunctive query over two binary relations,
// with 1–4 atoms, constants from a small domain, and a random head.
func randomCQ(rng *rand.Rand, name string) *cq.Query {
	rels := []string{"R", "S"}
	varNames := []string{"x", "y", "z", "w", "v"}
	consts := []string{"0", "1"}
	for {
		n := 1 + rng.Intn(4)
		body := make([]cq.Atom, n)
		used := map[string]bool{}
		for i := range body {
			args := make([]cq.Term, 2)
			for j := range args {
				if rng.Intn(5) == 0 {
					args[j] = cq.C(consts[rng.Intn(len(consts))])
				} else {
					v := varNames[rng.Intn(len(varNames))]
					args[j] = cq.V(v)
					used[v] = true
				}
			}
			body[i] = cq.Atom{Rel: rels[rng.Intn(2)], Args: args}
		}
		// Walk varNames, not the map, so a seed always yields the same query.
		var head []cq.Term
		for _, v := range varNames {
			if used[v] && rng.Intn(3) == 0 {
				head = append(head, cq.V(v))
			}
		}
		q, err := cq.NewQuery(name, head, body)
		if err != nil {
			continue
		}
		return q
	}
}

func randomBinaryDB(rng *rand.Rand, s *schema.Schema) *Database {
	db := NewDatabase(s)
	vals := []string{"0", "1", "2"}
	for _, rel := range []string{"R", "S"} {
		n := rng.Intn(7)
		for i := 0; i < n; i++ {
			db.MustInsert(rel, vals[rng.Intn(3)], vals[rng.Intn(3)])
		}
	}
	return db
}

// TestContainmentSemantics validates the Chandra–Merlin containment test
// against actual query evaluation: whenever ContainedIn(q1, q2) holds,
// ans(q1) ⊆ ans(q2) on every random database; and whenever evaluation
// exhibits a counterexample, ContainedIn must be false. (The converse —
// non-containment implies a counterexample exists — is checked
// probabilistically: over many random DBs most non-containments surface.)
func TestContainmentSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a", "b"),
	)
	checked := 0
	for trial := 0; trial < 300; trial++ {
		q1 := randomCQ(rng, "Q1")
		q2 := randomCQ(rng, "Q2")
		if len(q1.Head) != len(q2.Head) {
			continue
		}
		contained := cq.ContainedIn(q1, q2)
		checked++
		for d := 0; d < 6; d++ {
			db := randomBinaryDB(rng, s)
			r1, err := db.Eval(q1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := db.Eval(q2)
			if err != nil {
				t.Fatal(err)
			}
			if contained && !subsetOf(r1, r2) {
				t.Fatalf("ContainedIn claims %s ⊆ %s but answers differ:\n r1=%v\n r2=%v\n db R=%v S=%v",
					q1, q2, r1, r2, slices.Collect(db.Table("R").All()), slices.Collect(db.Table("S").All()))
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d comparable pairs; generator too narrow", checked)
	}
}

// TestMinimizeSemantics validates folding: the minimized query returns the
// same answers as the original on random databases.
func TestMinimizeSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a", "b"),
	)
	shrunk := 0
	for trial := 0; trial < 300; trial++ {
		q := randomCQ(rng, "Q")
		m := cq.Minimize(q)
		if len(m.Body) < len(q.Body) {
			shrunk++
		}
		for d := 0; d < 4; d++ {
			db := randomBinaryDB(rng, s)
			r1, err := db.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := db.Eval(m)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualResults(r1, r2) {
				t.Fatalf("Minimize changed semantics:\n q=%s\n m=%s\n r1=%v r2=%v\n db R=%v S=%v",
					q, m, r1, r2, slices.Collect(db.Table("R").All()), slices.Collect(db.Table("S").All()))
			}
		}
	}
	if shrunk < 20 {
		t.Fatalf("minimization only fired %d times; generator too narrow", shrunk)
	}
}

// equivalentVariant returns a query equivalent to q that is not a copy of
// it: every variable renamed, the body reversed, and one redundant atom
// added — the first atom again with its last argument a fresh variable,
// which folds back onto the original.
func equivalentVariant(t *testing.T, q *cq.Query) *cq.Query {
	t.Helper()
	rename := func(tm cq.Term) cq.Term {
		if tm.IsVar() {
			return cq.V("e_" + tm.Value)
		}
		return tm
	}
	var body []cq.Atom
	for i := len(q.Body) - 1; i >= 0; i-- {
		a := q.Body[i]
		body = append(body, cq.Atom{Rel: a.Rel, Args: []cq.Term{rename(a.Args[0]), rename(a.Args[1])}})
	}
	first := q.Body[0]
	body = append(body, cq.Atom{Rel: first.Rel, Args: []cq.Term{rename(first.Args[0]), cq.V("fresh")}})
	var head []cq.Term
	for _, tm := range q.Head {
		head = append(head, rename(tm))
	}
	v, err := cq.NewQuery(q.Name+"'", head, body)
	if err != nil {
		t.Fatalf("variant of %s: %v", q, err)
	}
	return v
}

// TestEquivalenceSemantics: queries declared equivalent must agree on
// random databases. Random pairs are rarely equivalent, so each trial also
// checks a variant of q1 that is equivalent by construction, which
// Equivalent must recognise.
func TestEquivalenceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a", "b"),
	)
	agree := func(q1, q2 *cq.Query) {
		for d := 0; d < 5; d++ {
			db := randomBinaryDB(rng, s)
			r1, err := db.Eval(q1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := db.Eval(q2)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualResults(r1, r2) {
				t.Fatalf("Equivalent(%s, %s) but answers differ: %v vs %v", q1, q2, r1, r2)
			}
		}
	}
	equivalents := 0
	for trial := 0; trial < 400; trial++ {
		q1 := randomCQ(rng, "Q1")
		q2 := randomCQ(rng, "Q2")
		v := equivalentVariant(t, q1)
		if !cq.Equivalent(q1, v) {
			t.Fatalf("Equivalent misses a renamed, reordered, redundant variant:\n q=%s\n v=%s", q1, v)
		}
		agree(q1, v)
		if len(q1.Head) == len(q2.Head) && cq.Equivalent(q1, q2) {
			equivalents++
			agree(q1, q2)
		}
	}
	t.Logf("%d random pairs declared equivalent", equivalents)
}

func subsetOf(a, b []Tuple) bool {
	set := make(map[string]bool, len(b))
	for _, t := range b {
		set[fmt.Sprint([]string(t))] = true
	}
	for _, t := range a {
		if !set[fmt.Sprint([]string(t))] {
			return false
		}
	}
	return true
}
