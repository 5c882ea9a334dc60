package rewrite

import (
	"testing"

	"repro/internal/cq"
)

func TestEquivalentJoinRewriting(t *testing.T) {
	// Q(x) :- M(x, y), C(y, w, 'Intern') is rewritable from the full views
	// V1 and V3 (the paper labels Q2 with {V1, V3}).
	q := cq.MustParse("Q(x) :- M(x, y), C(y, w, 'Intern')")
	v1 := cq.MustParse("V1(x, y) :- M(x, y)")
	v3 := cq.MustParse("V3(x, y, z) :- C(x, y, z)")
	rw, ok, err := Equivalent(q, []*cq.Query{v1, v3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected a rewriting of Q2 using {V1, V3}")
	}
	exp, err := Expand(rw, map[string]*cq.Query{"V1": v1, "V3": v3})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Equivalent(exp, q) {
		t.Errorf("expansion %s not equivalent to %s", exp, q)
	}
}

func TestNoRewritingFromProjections(t *testing.T) {
	// The full Meetings view is not rewritable from its two projections —
	// the central fact behind Figure 3's lattice shape.
	q := cq.MustParse("V1(x, y) :- M(x, y)")
	v2 := cq.MustParse("V2(x) :- M(x, y)")
	v4 := cq.MustParse("V4(y) :- M(x, y)")
	if _, ok, _ := Equivalent(q, []*cq.Query{v2, v4}, Options{MaxAtoms: 3}); ok {
		t.Error("V1 must not be rewritable from {V2, V4}")
	}
}

func TestJoinNeedsJoinAttribute(t *testing.T) {
	// Q(x) :- M(x, y), C(y, w, z): joining M and C on person requires the
	// join attribute to be visible in both views. With V2 (time slots only)
	// it is not.
	q := cq.MustParse("Q(x) :- M(x, y), C(y, w, z)")
	v2 := cq.MustParse("V2(x) :- M(x, y)")
	v3 := cq.MustParse("V3(x, y, z) :- C(x, y, z)")
	if _, ok, _ := Equivalent(q, []*cq.Query{v2, v3}, Options{}); ok {
		t.Error("join query must not be rewritable without the join attribute")
	}
	v1 := cq.MustParse("V1(x, y) :- M(x, y)")
	if _, ok, _ := Equivalent(q, []*cq.Query{v1, v3}, Options{}); !ok {
		t.Error("join query should be rewritable from the full views")
	}
}

func TestRewritingPrefersFewerAtoms(t *testing.T) {
	// When a single view answers the query, the witness should use one atom
	// even if more views are available.
	q := cq.MustParse("Q(x) :- M(x, y)")
	v1 := cq.MustParse("V1(x, y) :- M(x, y)")
	v2 := cq.MustParse("V2(x) :- M(x, y)")
	rw, ok, err := Equivalent(q, []*cq.Query{v1, v2}, Options{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(rw.Body) != 1 {
		t.Errorf("witness uses %d atoms, want 1: %s", len(rw.Body), rw)
	}
}

func TestRewritingSelfJoin(t *testing.T) {
	// A two-hop path query from the full edge view requires two view atoms.
	q := cq.MustParse("Q(x, z) :- E(x, y), E(y, z)")
	v := cq.MustParse("V(x, y) :- E(x, y)")
	rw, ok, err := Equivalent(q, []*cq.Query{v}, Options{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(rw.Body) != 2 {
		t.Errorf("witness uses %d atoms, want 2: %s", len(rw.Body), rw)
	}
	exp, err := Expand(rw, map[string]*cq.Query{"V": v})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Equivalent(exp, q) {
		t.Errorf("expansion %s not equivalent to %s", exp, q)
	}
}

// TestSetBelow holds Equivalent to the disclosure order W1 ≼ W2 it is the
// tests' oracle for: every view of W1 has an equivalent rewriting over W2.
func TestSetBelow(t *testing.T) {
	below := func(w1, w2 []*cq.Query) bool {
		for _, v := range w1 {
			if _, ok, err := Equivalent(v, w2, Options{}); err != nil || !ok {
				return false
			}
		}
		return true
	}
	v1 := cq.MustParse("V1(x, y) :- M(x, y)")
	v2 := cq.MustParse("V2(x) :- M(x, y)")
	v4 := cq.MustParse("V4(y) :- M(x, y)")
	v5 := cq.MustParse("V5() :- M(x, y)")
	// {V2, V4} ≼ {V1} but not vice versa.
	if !below([]*cq.Query{v2, v4}, []*cq.Query{v1}) {
		t.Error("{V2,V4} ≼ {V1} expected")
	}
	if below([]*cq.Query{v1}, []*cq.Query{v2, v4}) {
		t.Error("{V1} ⋠ {V2,V4} expected")
	}
	// {V5} below everything nonempty here.
	for _, w := range [][]*cq.Query{{v1}, {v2}, {v4}, {v2, v4}} {
		if !below([]*cq.Query{v5}, w) {
			t.Errorf("{V5} ≼ %v expected", w)
		}
	}
	// Reflexivity and the empty set.
	if !below(nil, []*cq.Query{v1}) {
		t.Error("∅ ≼ anything expected")
	}
	if below([]*cq.Query{v5}, nil) {
		t.Error("{V5} ⋠ ∅ expected")
	}
}

func TestEquivalentDuplicateViewNames(t *testing.T) {
	q := cq.MustParse("Q(x) :- M(x, y)")
	v := cq.MustParse("V(x, y) :- M(x, y)")
	if _, _, err := Equivalent(q, []*cq.Query{v, v}, Options{}); err == nil {
		t.Error("duplicate view names accepted")
	}
}

func TestEquivalentCandidateCap(t *testing.T) {
	q := cq.MustParse("Q(x, z) :- E(x, y), E(y, z)")
	v := cq.MustParse("V(x, y) :- E(x, y)")
	// With a candidate cap of 1 the two-atom rewriting cannot be assembled.
	if _, ok, _ := Equivalent(q, []*cq.Query{v}, Options{MaxCandidates: 1}); ok {
		t.Error("cap of 1 should prevent the two-atom witness")
	}
}

func TestExpandErrors(t *testing.T) {
	v := cq.MustParse("V(x, y) :- E(x, y)")
	rw := &Rewriting{Head: []cq.Term{cq.V("x")}, Body: []cq.Atom{cq.NewAtom("Unknown", cq.V("x"))}}
	if _, err := Expand(rw, map[string]*cq.Query{"V": v}); err == nil {
		t.Error("unknown view accepted")
	}
	rw = &Rewriting{Head: []cq.Term{cq.V("x")}, Body: []cq.Atom{cq.NewAtom("V", cq.V("x"))}}
	if _, err := Expand(rw, map[string]*cq.Query{"V": v}); err == nil {
		t.Error("arity mismatch accepted")
	}
}
