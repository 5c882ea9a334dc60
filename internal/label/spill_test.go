package label

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// WideViews returns a relation of forty attributes, Wide, and its 41
// security views: the full table, views[0], and the projection on attribute
// i, views[i+1]. The labels of the last nine live past the 32 bits of an
// atom label's packed word, in its spill words.
func WideViews() (*schema.Schema, []*cq.Query) {
	attrs := make([]string, 40)
	fullArgs := make([]cq.Term, 40)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
		fullArgs[i] = cq.V(fmt.Sprintf("x%d", i))
	}
	views := []*cq.Query{{
		Name: "full",
		Head: append([]cq.Term(nil), fullArgs...),
		Body: []cq.Atom{{Rel: "Wide", Args: fullArgs}},
	}}
	for i := 0; i < 40; i++ {
		views = append(views, &cq.Query{
			Name: fmt.Sprintf("proj%d", i),
			Head: []cq.Term{cq.V(fmt.Sprintf("x%d", i))},
			Body: []cq.Atom{{Rel: "Wide", Args: fullArgs}},
		})
	}
	return schema.MustNew(schema.MustRelation("Wide", attrs...)), views
}

// TestSpillPathEndToEnd exercises relations with more than 32 security
// views — the generalization beyond the paper's 32-bit masks — through the
// full labeler and comparison pipeline.
func TestSpillPathEndToEnd(t *testing.T) {
	s, views := WideViews()
	cat, err := NewCatalog(s, views...)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range allLabelers(cat) {
		// A single-column query is determined by its own projection and by
		// the full view: exactly 2 bits, one of which lives in the spill
		// region for columns ≥ 31 (bit 0 is the full view).
		q := views[40].Clone() // proj39
		q.Name = "Q"
		lbl, err := l.Label(q)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if len(lbl.Atoms) != 1 {
			t.Fatalf("%s: %d atoms", l.Name(), len(lbl.Atoms))
		}
		names := cat.ViewNamesOf(lbl.Atoms[0])
		if len(names) != 2 || names[0] != "full" || names[1] != "proj39" {
			t.Errorf("%s: ℓ⁺ = %v, want [full proj39]", l.Name(), names)
		}
		if len(lbl.Atoms[0].Spill) == 0 {
			t.Errorf("%s: expected spill bits for view 41 of the relation", l.Name())
		}

		// Comparisons across the spill boundary: proj39 reveals less than
		// the full table, so ℓ(proj39) ≼ ℓ(full) — i.e. ℓ⁺(proj39) ⊇
		// ℓ⁺(full) with the superset including a spill bit.
		qf := views[0].Clone()
		qf.Name = "QF"
		lblFull, err := l.Label(qf)
		if err != nil {
			t.Fatal(err)
		}
		if !lbl.BelowEq(lblFull) {
			t.Errorf("%s: proj39 label should be ≼ full-table label", l.Name())
		}
		if lblFull.BelowEq(lbl) {
			t.Errorf("%s: full-table label must not be ≼ proj39 label", l.Name())
		}
	}
}

// TestSpillPolicyEnforcement runs the reference-monitor comparison across
// the spill boundary.
func TestSpillPolicyEnforcement(t *testing.T) {
	attrs := make([]string, 36)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	s := schema.MustNew(schema.MustRelation("Wide", attrs...))
	fullArgs := make([]cq.Term, 36)
	for i := range fullArgs {
		fullArgs[i] = cq.V(fmt.Sprintf("x%d", i))
	}
	var views []*cq.Query
	for i := 0; i < 36; i++ {
		views = append(views, &cq.Query{
			Name: fmt.Sprintf("proj%d", i),
			Head: []cq.Term{cq.V(fmt.Sprintf("x%d", i))},
			Body: []cq.Atom{{Rel: "Wide", Args: fullArgs}},
		})
	}
	cat, err := NewCatalog(s, views...)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabeler(cat)
	granted, err := LabelViews(cat, []*cq.Query{cat.ViewByName("proj35")})
	if err != nil {
		t.Fatal(err)
	}
	q := views[35].Clone()
	q.Name = "Q"
	lbl, err := l.Label(q)
	if err != nil {
		t.Fatal(err)
	}
	if !lbl.BelowEq(granted) {
		t.Error("spill-region query should be admitted by its own view's grant")
	}
	q2 := views[2].Clone()
	q2.Name = "Q2"
	lbl2, err := l.Label(q2)
	if err != nil {
		t.Fatal(err)
	}
	if lbl2.BelowEq(granted) {
		t.Error("low-region query must not be admitted by a spill-region grant")
	}
}
