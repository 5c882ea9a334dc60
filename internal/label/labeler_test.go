package label

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/schema"
)

func equivRewriting(q *cq.Query, views []*cq.Query) (*rewrite.Rewriting, bool, error) {
	return rewrite.Equivalent(q, views, rewrite.Options{})
}

// figure1Catalog builds the security views of Figure 1: V1 (full Meetings),
// V2 (meeting times), V3 (full Contacts), plus V5 (Meetings nonempty) so the
// family is GLB-closed.
func figure1Catalog(t *testing.T) *Catalog {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("Meetings", "time", "person"),
		schema.MustRelation("Contacts", "person", "email", "position"),
	)
	return MustCatalog(s,
		cq.MustParse("V1(x, y) :- Meetings(x, y)"),
		cq.MustParse("V2(x) :- Meetings(x, y)"),
		cq.MustParse("V3(x, y, z) :- Contacts(x, y, z)"),
	)
}

func allLabelers(c *Catalog) []Labeler {
	return []Labeler{NewBaselineLabeler(c), NewHashedLabeler(c), NewLabeler(c)}
}

func TestFigure1QueryLabels(t *testing.T) {
	c := figure1Catalog(t)
	for _, l := range allLabelers(c) {
		// Q1(x) :- Meetings(x, 'Cathy') is labeled {V1}: it needs the person
		// column, which only the full view reveals.
		q1 := cq.MustParse("Q1(x) :- Meetings(x, 'Cathy')")
		lbl, err := l.Label(q1)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if got := lbl.Render(c); got != "{V1}" {
			t.Errorf("%s: label(Q1) = %s, want {V1}", l.Name(), got)
		}

		// Q2 is labeled {V1, V3} (the paper's headline example).
		q2 := cq.MustParse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')")
		lbl2, err := l.Label(q2)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		names := map[string]bool{}
		for _, a := range lbl2.Atoms {
			for _, n := range c.ViewNamesOf(a) {
				names[n] = true
			}
		}
		if !names["V1"] || !names["V3"] || names["V2"] {
			t.Errorf("%s: label(Q2) = %s, want {V1} ⊗ {V3}", l.Name(), lbl2.Render(c))
		}

		// A query over only the time column is labeled below {V2} (both V1
		// and V2 determine it, so ℓ⁺ = {V1, V2}).
		q3 := cq.MustParse("Q3(x) :- Meetings(x, y)")
		lbl3, err := l.Label(q3)
		if err != nil {
			t.Fatal(err)
		}
		v2lbl, err := LabelViews(c, []*cq.Query{c.ViewByName("V2")})
		if err != nil {
			t.Fatal(err)
		}
		if !lbl3.BelowEq(v2lbl) {
			t.Errorf("%s: label(Q3) = %s should be ≼ label({V2}) = %s", l.Name(), lbl3.Render(c), v2lbl.Render(c))
		}
		// Q1 is NOT below {V2} — the policy of Section 1.1 rejects it.
		lbl1, _ := l.Label(q1)
		if lbl1.BelowEq(v2lbl) {
			t.Errorf("%s: label(Q1) must not be ≼ label({V2})", l.Name())
		}
		// Neither is Q2.
		if lbl2.BelowEq(v2lbl) {
			t.Errorf("%s: label(Q2) must not be ≼ label({V2})", l.Name())
		}
	}
}

func TestLabelersAgree(t *testing.T) {
	c := figure1Catalog(t)
	queries := []string{
		"Q(x) :- Meetings(x, 'Cathy')",
		"Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
		"Q(x) :- Meetings(x, y)",
		"Q(y) :- Meetings(x, y)",
		"Q() :- Meetings(x, y)",
		"Q(x, y, z) :- Contacts(x, y, z)",
		"Q(e) :- Contacts(p, e, 'Manager')",
		"Q(t, e) :- Meetings(t, p), Contacts(p, e, r)",
		"Q() :- Meetings(x, x)",
		"Q(x) :- Meetings(x, y), Meetings(x, z)",
		"Q(x) :- Unknown(x, y)",
	}
	base, hash, opt := NewBaselineLabeler(c), NewHashedLabeler(c), NewLabeler(c)
	for _, src := range queries {
		q := cq.MustParse(src)
		lb, err1 := base.Label(q)
		lh, err2 := hash.Label(q)
		lo, err3 := opt.Label(q)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s: errors %v %v %v", src, err1, err2, err3)
		}
		if !lb.EquivTo(lh) || !lh.EquivTo(lo) {
			t.Errorf("%s: labelers disagree:\n baseline=%s\n hashing=%s\n bitvec=%s",
				src, lb.Render(c), lh.Render(c), lo.Render(c))
		}
	}
}

func TestUnknownRelationIsTop(t *testing.T) {
	c := figure1Catalog(t)
	for _, l := range allLabelers(c) {
		lbl, err := l.Label(cq.MustParse("Q(x) :- Secrets(x)"))
		if err != nil {
			t.Fatal(err)
		}
		if !lbl.HasTop() {
			t.Errorf("%s: query over uncovered relation must be labeled ⊤", l.Name())
		}
	}
}

func TestExample61LPlusSets(t *testing.T) {
	// Example 6.1 over the Contacts projections: with Fgen = {V3, V6, V7,
	// V8}, ℓ⁺(V9) = {V3, V6, V7} and ℓ⁺(V12) = {V3, V6, V7, V8}; therefore
	// ℓ(V12) ≼ ℓ(V9).
	s := schema.MustNew(schema.MustRelation("C", "a", "b", "c"))
	c := MustCatalog(s,
		cq.MustParse("V3(x, y, z) :- C(x, y, z)"),
		cq.MustParse("V6(x, y) :- C(x, y, z)"),
		cq.MustParse("V7(x, z) :- C(x, y, z)"),
		cq.MustParse("V8(y, z) :- C(x, y, z)"),
	)
	l := NewLabeler(c)
	l9, err := l.Label(cq.MustParse("V9(x) :- C(x, y, z)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(l9.Atoms) != 1 {
		t.Fatalf("label(V9) has %d atoms", len(l9.Atoms))
	}
	got := c.ViewNamesOf(l9.Atoms[0])
	want := []string{"V3", "V6", "V7"}
	if len(got) != len(want) {
		t.Fatalf("ℓ⁺(V9) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ℓ⁺(V9) = %v, want %v", got, want)
		}
	}
	l12, err := l.Label(cq.MustParse("V12() :- C(x, y, z)"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ViewNamesOf(l12.Atoms[0]); len(got) != 4 {
		t.Fatalf("ℓ⁺(V12) = %v, want all four views", got)
	}
	if !l12.BelowEq(l9) {
		t.Error("ℓ(V12) ≼ ℓ(V9) expected (Example 6.1)")
	}
	if l9.BelowEq(l12) {
		t.Error("ℓ(V9) ⋠ ℓ(V12) expected")
	}
}

func TestLabelComparisonMatchesSemantics(t *testing.T) {
	// ℓ(V) ≼ ℓ(V') iff ℓ⁺(V) ⊇ ℓ⁺(V') — cross-check the bit-vector
	// comparison against the rewritability relation itself on all pairs of
	// Contacts projections.
	s := schema.MustNew(schema.MustRelation("C", "a", "b", "c"))
	c := MustCatalog(s,
		cq.MustParse("V3(x, y, z) :- C(x, y, z)"),
		cq.MustParse("V6(x, y) :- C(x, y, z)"),
		cq.MustParse("V7(x, z) :- C(x, y, z)"),
		cq.MustParse("V8(y, z) :- C(x, y, z)"),
	)
	all := []string{
		"P3(x, y, z) :- C(x, y, z)",
		"P6(x, y) :- C(x, y, z)",
		"P7(x, z) :- C(x, y, z)",
		"P8(y, z) :- C(x, y, z)",
		"P9(x) :- C(x, y, z)",
		"P10(y) :- C(x, y, z)",
		"P11(z) :- C(x, y, z)",
		"P12() :- C(x, y, z)",
	}
	l := NewLabeler(c)
	for _, a := range all {
		for _, b := range all {
			qa, qb := cq.MustParse(a), cq.MustParse(b)
			la, err := l.Label(qa)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := l.Label(qb)
			if err != nil {
				t.Fatal(err)
			}
			// Semantic ground truth: {qa} ≼ {qb} under single-atom
			// rewriting. Label order must match because the catalog's
			// generating set is complete for projections.
			want := rewrite.SingleAtomRewritable(qa, qb)
			got := la.BelowEq(lb)
			if want && !got {
				t.Errorf("label order misses %s ≼ %s", a, b)
			}
			// The converse can legitimately hold more often (labels are an
			// upper approximation), but for a projection-complete Fgen the
			// orders coincide.
			if got && !want {
				t.Errorf("label order spuriously claims %s ≼ %s", a, b)
			}
		}
	}
}

func TestCatalogValidation(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	if _, err := NewCatalog(s, cq.MustParse("V(x) :- R(x, y), R(y, z)")); err == nil {
		t.Error("multi-atom security view accepted")
	}
	if _, err := NewCatalog(s, cq.MustParse("V(x) :- R(x, y)"), cq.MustParse("V(y) :- R(x, y)")); err == nil {
		t.Error("duplicate view name accepted")
	}
	if _, err := NewCatalog(s, cq.MustParse("V(x) :- Nope(x)")); err == nil {
		t.Error("view over unknown relation accepted with schema validation")
	}
	if _, err := NewCatalog(nil, cq.MustParse("V(x) :- Nope(x)")); err != nil {
		t.Error("nil schema should skip relation validation")
	}
}

func TestCatalogAccessors(t *testing.T) {
	c := figure1Catalog(t)
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.ViewByName("V2") == nil || c.ViewByName("Nope") != nil {
		t.Error("ViewByName wrong")
	}
	if got := len(c.RelViews("Meetings")); got != 2 {
		t.Errorf("RelViews(Meetings) = %d views, want 2", got)
	}
	if c.RelViews("Nope") != nil {
		t.Error("RelViews(Nope) should be nil")
	}
	id := c.RelationID("Meetings")
	if id == 0 || c.RelationName(id) != "Meetings" {
		t.Error("relation id mapping broken")
	}
	if c.RelationName(0) != "" || c.RelationID("Nope") != 0 {
		t.Error("zero-id handling broken")
	}
}

func TestLabelViewsErrors(t *testing.T) {
	c := figure1Catalog(t)
	if _, err := LabelViews(c, []*cq.Query{cq.MustParse("J(x) :- Meetings(x, y), Contacts(y, a, b)")}); err == nil {
		t.Error("multi-atom view accepted by LabelViews")
	}
}

// NaiveLabelSets implements the NaïveLabel procedure of Section 3.3 at the
// catalog level, as a reference for the tests: given a family F of security-
// view subsets (by view name) it returns the name-set of the first family
// element (in increasing disclosure order) whose information dominates the
// query's, or nil when only ⊤ qualifies.
func NaiveLabelSets(c *Catalog, family [][]string, q *cq.Query) ([]string, error) {
	lbl, err := NewLabeler(c).Label(q)
	if err != nil {
		return nil, err
	}
	type entry struct {
		names []string
		lbl   Label
	}
	entries := make([]entry, 0, len(family))
	for _, names := range family {
		views := make([]*cq.Query, 0, len(names))
		for _, n := range names {
			v := c.ViewByName(n)
			if v == nil {
				return nil, fmt.Errorf("label: unknown security view %q in family", n)
			}
			views = append(views, v)
		}
		fl, err := LabelViews(c, views)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{names: names, lbl: fl})
	}
	// Linear extension of increasing disclosure: sort by how many family
	// members dominate each entry (more dominators = lower disclosure).
	dominators := func(e entry) int {
		n := 0
		for _, o := range entries {
			if e.lbl.BelowEq(o.lbl) {
				n++
			}
		}
		return n
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return dominators(entries[i]) > dominators(entries[j])
	})
	for _, e := range entries {
		if lbl.BelowEq(e.lbl) {
			out := append([]string(nil), e.names...)
			sort.Strings(out)
			return out, nil
		}
	}
	return nil, nil
}

func TestNaiveLabelSets(t *testing.T) {
	c := figure1Catalog(t)
	family := [][]string{{}, {"V2"}, {"V1"}, {"V3"}, {"V1", "V3"}}
	got, err := NaiveLabelSets(c, family, cq.MustParse("Q(x) :- Meetings(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "V2" {
		t.Errorf("NaiveLabelSets = %v, want [V2]", got)
	}
	got, err = NaiveLabelSets(c, family, cq.MustParse("Q(x) :- Meetings(x, 'Cathy')"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "V1" {
		t.Errorf("NaiveLabelSets = %v, want [V1]", got)
	}
	q2 := cq.MustParse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')")
	got, err = NaiveLabelSets(c, family, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "V1" || got[1] != "V3" {
		t.Errorf("NaiveLabelSets(Q2) = %v, want [V1 V3]", got)
	}
	if _, err := NaiveLabelSets(c, [][]string{{"Missing"}}, q2); err == nil {
		t.Error("unknown view in family accepted")
	}
}
