package cq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestParseQueryBasic(t *testing.T) {
	q, err := ParseQuery("Q1(x) :- Meetings(x, 'Cathy')")
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if q.Name != "Q1" {
		t.Errorf("name = %q, want Q1", q.Name)
	}
	if len(q.Head) != 1 || q.Head[0] != V("x") {
		t.Errorf("head = %v, want [x]", q.Head)
	}
	if len(q.Body) != 1 {
		t.Fatalf("body has %d atoms, want 1", len(q.Body))
	}
	a := q.Body[0]
	if a.Rel != "Meetings" || len(a.Args) != 2 || a.Args[0] != V("x") || a.Args[1] != C("Cathy") {
		t.Errorf("atom = %v", a)
	}
}

func TestParseQueryMultiAtom(t *testing.T) {
	for _, src := range []string{
		"Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
		"Q2(x) :- Meetings(x, y) ∧ Contacts(y, w, 'Intern')",
		"Q2(x) :- Meetings(x, y) && Contacts(y, w, 'Intern')",
		"Q2(x) :- Meetings(x, y) AND Contacts(y, w, 'Intern')",
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", src, err)
		}
		if len(q.Body) != 2 {
			t.Errorf("ParseQuery(%q): body has %d atoms, want 2", src, len(q.Body))
		}
	}
}

func TestParseNumericAndBooleanHeads(t *testing.T) {
	q, err := ParseQuery("V13() :- M(9, 'Jim')")
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if !q.IsBoolean() {
		t.Error("expected boolean query")
	}
	if q.Body[0].Args[0] != C("9") {
		t.Errorf("first arg = %v, want constant 9", q.Body[0].Args[0])
	}
	if _, err := ParseQuery("V(x) :- M(-3, x)"); err != nil {
		t.Errorf("negative numeric constant: %v", err)
	}
}

func TestParsePaperArrow(t *testing.T) {
	q, err := ParseQuery("V1(x, y) :− Meetings(x, y)")
	if err != nil {
		t.Fatalf("typographic arrow: %v", err)
	}
	if len(q.Body) != 1 || q.Body[0].Rel != "Meetings" {
		t.Errorf("unexpected parse %v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(x)",
		"Q(x) :-",
		"Q(x) :- R(x",
		"Q(x) :- R(x,)",
		"Q(x :- R(x)",
		"Q(x) : R(x)",
		"Q(x) :- R(x) trailing",
		"Q(x) :- R('unterminated)",
		"Q(x) :- S(y)", // unsafe head
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", src)
		}
	}
}

func TestParseProgram(t *testing.T) {
	qs, err := ParseProgram(`
# security views from Figure 1
V1(x, y) :- Meetings(x, y)
% comment style two
V2(x) :- Meetings(x, y)

V3(x, y, z) :- Contacts(x, y, z)
`)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	if len(qs) != 3 {
		t.Fatalf("got %d queries, want 3", len(qs))
	}
	if qs[1].Name != "V2" {
		t.Errorf("second query = %s", qs[1].Name)
	}
}

func TestVarRoles(t *testing.T) {
	q := MustParse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')")
	roles := q.VarRoles()
	if roles["x"] != Distinguished {
		t.Errorf("x role = %v, want distinguished", roles["x"])
	}
	for _, v := range []string{"y", "w"} {
		if roles[v] != Existential {
			t.Errorf("%s role = %v, want existential", v, roles[v])
		}
	}
	if got := q.TaggedString(); got != "[Meetings(x_d, y_e), Contacts(y_e, w_e, 'Intern')]" {
		t.Errorf("TaggedString = %q", got)
	}
}

func TestValidateAgainstSchema(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("Meetings", "time", "person"),
		schema.MustRelation("Contacts", "person", "email", "position"),
	)
	good := MustParse("Q(x) :- Meetings(x, y)")
	if err := good.ValidateAgainst(s); err != nil {
		t.Errorf("ValidateAgainst(good): %v", err)
	}
	unknownRel := MustParse("Q(x) :- Nope(x)")
	if err := unknownRel.ValidateAgainst(s); err == nil {
		t.Error("unknown relation accepted")
	}
	badArity := MustParse("Q(x) :- Meetings(x, y, z)")
	if err := badArity.ValidateAgainst(s); err == nil {
		t.Error("bad arity accepted")
	}
}

func TestContainmentAndEquivalence(t *testing.T) {
	v1 := MustParse("V1(x, y) :- M(x, y)")
	v1p := MustParse("V1p(y, x) :- M(x, y)")
	v2 := MustParse("V2(x) :- M(x, y)")

	// Renamed copy of V1 is equivalent.
	v1r := MustParse("W(a, b) :- M(a, b)")
	if !Equivalent(v1, v1r) {
		t.Error("V1 should be equivalent to its renaming")
	}
	// Swapped-head view is NOT equivalent as a query (different column order).
	if Equivalent(v1, v1p) {
		t.Error("V1 and V1' have different heads and must not be equivalent")
	}
	// Projection containment: answers of V1 are not comparable to V2 (arity
	// differs), so homomorphism must fail outright.
	if ContainedIn(v1, v2) || ContainedIn(v2, v1) {
		t.Error("queries of different head arity must be incomparable")
	}

	// Classic containment: Q(x) :- R(x,y) contains Q(x) :- R(x,'a').
	general := MustParse("Q(x) :- R(x, y)")
	specific := MustParse("Q(x) :- R(x, 'a')")
	if !ContainedIn(specific, general) {
		t.Error("specific ⊆ general expected")
	}
	if ContainedIn(general, specific) {
		t.Error("general ⊄ specific expected")
	}
}

func TestContainmentSelfJoin(t *testing.T) {
	// Q(x) :- R(x, y), R(y, z) — a path of length 2.
	path2 := MustParse("Q(x) :- R(x, y), R(y, z)")
	// Q(x) :- R(x, y), R(y, z), R(z, w) — a path of length 3.
	path3 := MustParse("Q(x) :- R(x, y), R(y, z), R(z, w)")
	if !ContainedIn(path3, path2) {
		t.Error("path3 ⊆ path2 expected (longer path implies shorter prefix)")
	}
	if ContainedIn(path2, path3) {
		t.Error("path2 ⊄ path3 expected")
	}
	// Q'(x) :- R(x, y), R(x, z) is equivalent to Q''(x) :- R(x, y).
	redundant := MustParse("Q(x) :- R(x, y), R(x, z)")
	simple := MustParse("Q(x) :- R(x, y)")
	if !Equivalent(redundant, simple) {
		t.Error("redundant self-join should be equivalent to single atom")
	}
}

func TestMinimize(t *testing.T) {
	cases := []struct {
		in   string
		want int // atoms after minimization
	}{
		{"Q(x) :- R(x, y), R(x, z)", 1},
		{"Q(x) :- R(x, y), R(y, z)", 2},
		{"Q(x, y) :- R(x, y), R(x, z)", 1},
		{"Q() :- R(x, y), R(z, w)", 1},
		{"Q(x) :- R(x, y), S(y, z), S(y, w)", 2},
		{"Q(x) :- R(x, 'a'), R(x, y)", 1}, // R(x,y) folds onto R(x,'a')
		{"Q(x) :- R(x, 'a'), R(x, 'b')", 2},
	}
	for _, tc := range cases {
		q := MustParse(tc.in)
		m := Minimize(q)
		if len(m.Body) != tc.want {
			t.Errorf("Minimize(%q) has %d atoms, want %d (got %s)", tc.in, len(m.Body), tc.want, m)
		}
		if !Equivalent(q, m) {
			t.Errorf("Minimize(%q) = %s is not equivalent to input", tc.in, m)
		}
	}
}

func TestMinimizePreservesHeadSafety(t *testing.T) {
	// The only atom containing head variable y cannot be dropped even though
	// a homomorphism into the remainder would otherwise exist.
	q := MustParse("Q(x, y) :- R(x, y), R(x, z)")
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Fatalf("Minimize: %s", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("minimized query unsafe: %v", err)
	}
	if m.Body[0].Args[1] != V("y") {
		t.Errorf("kept the wrong atom: %s", m)
	}
}

func TestCanonicalString(t *testing.T) {
	a := MustParse("Q(x) :- R(x, y), S(y, 'c')")
	b := MustParse("Q(u) :- S(v, 'c'), R(u, v)")
	if a.CanonicalString() != b.CanonicalString() {
		t.Errorf("canonical strings differ:\n%s\n%s", a.CanonicalString(), b.CanonicalString())
	}
	c := MustParse("Q(x) :- R(x, y), S(y, 'd')")
	if a.CanonicalString() == c.CanonicalString() {
		t.Error("different constants should give different canonical strings")
	}
}

func TestRenameApart(t *testing.T) {
	q := MustParse("Q(x) :- R(x, y)")
	other := MustParse("P(x) :- S(x, y)")
	r := q.RenameApart(other)
	if !Equivalent(q, r) {
		t.Error("renaming must preserve equivalence")
	}
	otherVars := make(map[string]struct{})
	for _, v := range other.Vars() {
		otherVars[v] = struct{}{}
	}
	for _, v := range r.Vars() {
		if _, clash := otherVars[v]; clash {
			t.Errorf("variable %s still clashes", v)
		}
	}
}

func TestSubst(t *testing.T) {
	q := MustParse("Q(x) :- R(x, y)")
	s := Subst{"x": C("7"), "y": V("z")}
	out := s.ApplyQuery(q)
	if out.Head[0] != C("7") {
		t.Errorf("head = %v", out.Head)
	}
	if out.Body[0].Args[1] != V("z") {
		t.Errorf("body = %v", out.Body)
	}
	if got := s.String(); !strings.Contains(got, "x→'7'") {
		t.Errorf("Subst.String = %q", got)
	}
	// Original untouched.
	if q.Head[0] != V("x") {
		t.Error("ApplyQuery mutated its input")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"Q1(x) :- Meetings(x, 'Cathy')",
		"Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
		"V5() :- Meetings(x, y)",
	}
	for _, src := range srcs {
		q := MustParse(src)
		q2, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if !q.Equal(q2) {
			t.Errorf("round trip changed query: %s vs %s", q, q2)
		}
	}
}

// FindBodyHomomorphism searches for a homomorphism from the body atoms of
// `from` into the body atoms of `to` that extends the given partial
// substitution (which may be nil). It returns the witness, or nil. It is
// the search the fold runs, with a seed, and only the tests need one.
func FindBodyHomomorphism(from, to []Atom, seed Subst) Subst {
	src, dst := intern(nil, from), intern(nil, to)
	defer src.Release()
	defer dst.Release()
	s := src.newSearch(dst)
	for name, t := range seed {
		v, ok := src.lookupVar(name)
		if !ok {
			continue // not a variable of `from`: carried into the witness as is
		}
		id := int32(-1)
		if t.IsVar() {
			// A target variable `to` never mentions still gets an id of its
			// own, distinct from every id the target atoms hold.
			id = dst.internVar(t.Value)
		}
		s.bind(v, id, t.Value)
	}
	if !s.search(len(from)) {
		return nil
	}
	return s.witness(seed)
}

// lookupVar returns the id of a variable name, if it has one.
func (f *Form) lookupVar(name string) (int32, bool) {
	s := f.slot(name)
	return s.id - 1, s.id != 0
}

func TestFindBodyHomomorphismSeed(t *testing.T) {
	from := MustParse("Q(x) :- R(x, y)").Body
	to := MustParse("P(a) :- R(a, b), R(c, d)").Body
	// With a seed forcing x→c the only extension is y→d.
	h := FindBodyHomomorphism(from, to, Subst{"x": V("c")})
	if h == nil {
		t.Fatal("expected a homomorphism")
	}
	if h["y"] != V("d") {
		t.Errorf("y → %v, want d", h["y"])
	}
	// An unsatisfiable seed fails.
	if h := FindBodyHomomorphism(from, to, Subst{"x": C("nope")}); h != nil {
		t.Errorf("expected failure, got %v", h)
	}
	// Seeds naming more target variables than the target holds grow its
	// name table past the size its own terms gave it; each keeps an id of
	// its own.
	var xs, ys []string
	wide, onto := Subst{}, Subst{}
	for i := 0; i < 20; i++ {
		xs, ys = append(xs, fmt.Sprintf("x%d", i)), append(ys, fmt.Sprintf("y%d", i))
		wide[xs[i]], onto[xs[i]] = V(fmt.Sprintf("z%d", i)), V(ys[i])
	}
	from = MustParse("Q() :- R(" + strings.Join(xs, ", ") + ")").Body
	to = MustParse("P() :- R(" + strings.Join(ys, ", ") + ")").Body
	if h := FindBodyHomomorphism(from, to, wide); h != nil {
		t.Errorf("seeded onto variables the target lacks: got %v", h)
	}
	if h := FindBodyHomomorphism(from, to, onto); h == nil || h["x19"] != V("y19") {
		t.Errorf("seeded onto the target's own variables: got %v", h)
	}
}

func TestQueryAccessors(t *testing.T) {
	q := MustParse("Q(x) :- R(x, y)")
	if !q.IsSingleAtom() {
		t.Error("IsSingleAtom wrong")
	}
	if q.Role("x") != Distinguished || q.Role("y") != Existential {
		t.Error("Role wrong")
	}
	a := NewAtom("R", V("x"), C("c"))
	if a.String() != "R(x, 'c')" {
		t.Errorf("Atom.String = %q", a.String())
	}
	if !a.Equal(a) || a.Equal(NewAtom("S", V("x"), C("c"))) || a.Equal(NewAtom("R", V("x"))) {
		t.Error("Atom.Equal wrong")
	}
	mq := MustQuery("M", []Term{V("x")}, []Atom{NewAtom("R", V("x"))})
	if mq.Name != "M" {
		t.Error("MustQuery wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustQuery should panic on unsafe query")
		}
	}()
	MustQuery("Bad", []Term{V("z")}, []Atom{NewAtom("R", V("x"))})
}

func TestIsMinimal(t *testing.T) {
	if !IsMinimal(MustParse("Q(x) :- R(x, y), S(y, z)")) {
		t.Error("minimal query reported non-minimal")
	}
	if IsMinimal(MustParse("Q(x) :- R(x, y), R(x, z)")) {
		t.Error("foldable query reported minimal")
	}
}

func TestAllBodyHomomorphisms(t *testing.T) {
	from := MustParse("Q() :- R(x, y)").Body
	to := MustParse("P() :- R(a, b), R(b, c)").Body
	homs := AllBodyHomomorphisms(from, to, nil)
	if len(homs) != 2 {
		t.Fatalf("got %d homomorphisms, want 2: %v", len(homs), homs)
	}
	// Seeded enumeration restricts the result.
	homs = AllBodyHomomorphisms(from, to, Subst{"x": V("b")})
	if len(homs) != 1 || homs[0]["y"] != V("c") {
		t.Fatalf("seeded homs = %v", homs)
	}
}
