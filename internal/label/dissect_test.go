package label

import (
	"testing"

	"repro/internal/cq"
)

func TestDissectExample54(t *testing.T) {
	// Example 5.4: Q2(x) :- M(x,y), C(y,w,'Intern') dissects into
	// [M(x_d, y_d)] and [C(y_d, w_e, 'Intern')] — the join variable y is
	// promoted to distinguished.
	q := cq.MustParse("Q2(x) :- M(x, y), C(y, w, 'Intern')")
	atoms, err := Dissect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 2 {
		t.Fatalf("Dissect returned %d atoms, want 2", len(atoms))
	}
	wantM := cq.MustParse("W(x, y) :- M(x, y)")
	wantC := cq.MustParse("W(y) :- C(y, w, 'Intern')")
	var gotM, gotC bool
	for _, a := range atoms {
		if cq.Equivalent(a, wantM) {
			gotM = true
		}
		if cq.Equivalent(a, wantC) {
			gotC = true
		}
	}
	if !gotM || !gotC {
		t.Errorf("Dissect(%s) = %v, want [M(x_d,y_d)], [C(y_d,w_e,'Intern')]", q, atoms)
	}
}

func TestDissectFoldsFirst(t *testing.T) {
	// The redundant atom must be folded away before splitting; otherwise z
	// would appear in two atoms and be wrongly promoted.
	q := cq.MustParse("Q(x) :- R(x, y), R(x, z)")
	atoms, err := Dissect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 1 {
		t.Fatalf("Dissect returned %d atoms, want 1 after folding", len(atoms))
	}
	if !cq.Equivalent(atoms[0], cq.MustParse("W(x) :- R(x, y)")) {
		t.Errorf("atom = %s, want π1", atoms[0])
	}
}

func TestDissectSingleAtomIdentity(t *testing.T) {
	q := cq.MustParse("V6(x, y) :- C(x, y, z)")
	atoms, err := Dissect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 1 || !cq.Equivalent(atoms[0], q) {
		t.Errorf("Dissect of single-atom view changed it: %v", atoms)
	}
}

func TestDissectDeduplicates(t *testing.T) {
	// Q(x, y) :- E(x, z), E(y, w): two structurally identical atoms after
	// renaming (π1 of E twice) — but they bind different head variables, so
	// both must survive... whereas two fully identical projections merge.
	q := cq.MustParse("Q() :- E(x, z), E(y, w)")
	atoms, err := Dissect(q)
	if err != nil {
		t.Fatal(err)
	}
	// Folding already collapses the two atoms (they are homomorphic).
	if len(atoms) != 1 {
		t.Errorf("Dissect returned %d atoms, want 1", len(atoms))
	}
}

func TestDissectSelfJoinKeepsBothAtoms(t *testing.T) {
	// Path query: E(x,y), E(y,z) with head (x,z). y is a join variable.
	q := cq.MustParse("Q(x, z) :- E(x, y), E(y, z)")
	atoms, err := Dissect(q)
	if err != nil {
		t.Fatal(err)
	}
	// Both atoms become full binary views E(a_d, b_d) and are duplicates up
	// to renaming, so dissection returns one view requiring full E.
	if len(atoms) != 1 {
		t.Fatalf("Dissect returned %d atoms, want 1 (deduplicated)", len(atoms))
	}
	if !cq.Equivalent(atoms[0], cq.MustParse("W(x, y) :- E(x, y)")) {
		t.Errorf("atom = %s, want full E view", atoms[0])
	}
}

func TestDissectRepeatedVarWithinAtom(t *testing.T) {
	// A repeated existential within one atom stays existential (it is not a
	// join across atoms).
	q := cq.MustParse("Q() :- R(x, x, y)")
	atoms, err := Dissect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 1 {
		t.Fatalf("got %d atoms", len(atoms))
	}
	if !cq.Equivalent(atoms[0], cq.MustParse("W() :- R(x, x, y)")) {
		t.Errorf("atom = %s", atoms[0])
	}
}

func TestDissectInvalidQuery(t *testing.T) {
	q := &cq.Query{Name: "Bad", Head: []cq.Term{cq.V("x")}, Body: nil}
	if _, err := Dissect(q); err == nil {
		t.Error("empty body accepted")
	}
}

// TestDissectDisclosureDominates checks the labeler property (Definition
// 3.4(c)) for Dissect: the dissected views jointly determine the original
// query, witnessed by an equivalent rewriting.
func TestDissectDisclosureDominates(t *testing.T) {
	queries := []string{
		"Q(x) :- M(x, y), C(y, w, 'Intern')",
		"Q(x, z) :- E(x, y), E(y, z)",
		"Q(t) :- M(t, p), C(p, e, r)",
		"Q(a) :- R(a, b), S(b, c), T(c, 'k')",
	}
	for _, src := range queries {
		q := cq.MustParse(src)
		atoms, err := Dissect(q)
		if err != nil {
			t.Fatal(err)
		}
		// Give the dissected views distinct relation-symbol names and check
		// the original query is rewritable from them.
		if !labelDominates(t, q, atoms) {
			t.Errorf("dissection of %s does not determine the query", src)
		}
	}
}

func labelDominates(t *testing.T, q *cq.Query, views []*cq.Query) bool {
	t.Helper()
	named := make([]*cq.Query, len(views))
	for i, v := range views {
		c := v.Clone()
		named[i] = c
	}
	_, ok, err := equivRewriting(q, named)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestDissectConstantsWithSeparators: two atoms whose constants differ only
// in where a '|' falls are different views. The rendered key Dissect used to
// de-duplicate by joined tokens with '|' and wrote constants raw, so both
// atoms below rendered "R|ca|cb|cc", the second was dropped as a duplicate,
// and the query was labeled as if it needed one view instead of two.
func TestDissectConstantsWithSeparators(t *testing.T) {
	c, err := NewCatalog(nil,
		cq.MustParse("W(x) :- R(x, 'c')"),
		cq.MustParse("V(y) :- R('a', y)"))
	if err != nil {
		t.Fatal(err)
	}
	atoms := []cq.Atom{
		cq.NewAtom("R", cq.C("a|cb"), cq.C("c")), // needs W
		cq.NewAtom("R", cq.C("a"), cq.C("b|cc")), // needs V
	}
	want, err := LabelViews(c, []*cq.Query{c.ViewByName("W"), c.ViewByName("V")})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]cq.Atom{{atoms[0], atoms[1]}, {atoms[1], atoms[0]}} {
		q := cq.MustQuery("Q", nil, body)
		for _, l := range allLabelers(c) {
			got, err := l.Label(q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EquivTo(want) {
				t.Errorf("%s: label of %s = %s, want %s", l.Name(), q, got.Render(c), want.Render(c))
			}
		}
	}
}
