package cq_test

// The clone-based fold and the map-mutating homomorphism search this
// package used before both ran on interned forms, kept as a test-only
// reference (as engine.EvalReference is for the executor): the rewritten
// fold must keep exactly the atoms this one keeps, and the rewritten search
// must find a witness exactly when this one does.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// refFindHomomorphism is the reference for cq.FindHomomorphism.
func refFindHomomorphism(from, to *cq.Query) cq.Subst {
	if len(from.Head) != len(to.Head) {
		return nil
	}
	h := make(cq.Subst)
	for i := range from.Head {
		ft, tt := from.Head[i], to.Head[i]
		if ft.IsConst() {
			if !tt.IsConst() || ft.Value != tt.Value {
				return nil
			}
			continue
		}
		if prev, ok := h[ft.Value]; ok {
			if prev != tt {
				return nil
			}
			continue
		}
		h[ft.Value] = tt
	}
	if homBody(from.Body, to.Body, h) {
		return h
	}
	return nil
}

type refSearch struct {
	from  []cq.Atom
	to    []cq.Atom
	used  []bool
	added []string
}

// homBody extends h so that every atom of from maps onto some atom of to,
// mutating h as it goes.
func homBody(from, to []cq.Atom, h cq.Subst) bool {
	if len(from) == 0 {
		return true
	}
	s := refSearch{from: from, to: to, used: make([]bool, len(from)), added: make([]string, 0, 16)}
	return s.search(len(from), h)
}

func (s *refSearch) search(remaining int, h cq.Subst) bool {
	if remaining == 0 {
		return true
	}
	best, bestScore := -1, -1
	for i := range s.from {
		if s.used[i] {
			continue
		}
		score := 0
		for _, t := range s.from[i].Args {
			if t.IsConst() {
				score++
			} else if _, ok := h[t.Value]; ok {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	atom := s.from[best]
	s.used[best] = true
	base := len(s.added)
	for _, target := range s.to {
		if target.Rel != atom.Rel || len(target.Args) != len(atom.Args) {
			continue
		}
		ok := true
		for i, t := range atom.Args {
			want := target.Args[i]
			if t.IsConst() {
				if !want.IsConst() || t.Value != want.Value {
					ok = false
					break
				}
				continue
			}
			if prev, bound := h[t.Value]; bound {
				if prev != want {
					ok = false
					break
				}
				continue
			}
			h[t.Value] = want
			s.added = append(s.added, t.Value)
		}
		if ok && s.search(remaining-1, h) {
			return true
		}
		for _, v := range s.added[base:] {
			delete(h, v)
		}
		s.added = s.added[:base]
	}
	s.used[best] = false
	return false
}

// refMinimize is the reference for cq.Minimize: one Clone and one Validate
// per candidate atom, passes repeated until nothing is dropped.
func refMinimize(q *cq.Query) *cq.Query {
	relCount := make(map[string]int, len(q.Body))
	for _, a := range q.Body {
		relCount[a.Rel]++
	}
	cur := q.Clone()
	for {
		removed := false
		for i := 0; i < len(cur.Body); i++ {
			if len(cur.Body) == 1 {
				break
			}
			if relCount[cur.Body[i].Rel] < 2 {
				continue
			}
			candidate := cur.Clone()
			candidate.Body = append(candidate.Body[:i], candidate.Body[i+1:]...)
			if candidate.Validate() != nil {
				continue
			}
			if refFindHomomorphism(cur, candidate) != nil {
				relCount[cur.Body[i].Rel]--
				cur = candidate
				removed = true
				i--
			}
		}
		if !removed {
			return cur
		}
	}
}

// selfJoinQuery draws a query over few relations and a small variable
// pool, so that most atoms share a relation and folds do drop atoms.
func selfJoinQuery(rng *rand.Rand) *cq.Query {
	rels := []string{"R", "S"}
	for {
		n := 1 + rng.Intn(7)
		nv := 2 + rng.Intn(5)
		body := make([]cq.Atom, n)
		for i := range body {
			args := make([]cq.Term, 2+rng.Intn(2))
			for j := range args {
				if rng.Intn(6) == 0 {
					args[j] = cq.C(fmt.Sprintf("c%d", rng.Intn(2)))
				} else {
					args[j] = cq.V(fmt.Sprintf("x%d", rng.Intn(nv)))
				}
			}
			body[i] = cq.Atom{Rel: rels[rng.Intn(len(rels))], Args: args}
		}
		var head []cq.Term
		for _, a := range body {
			for _, t := range a.Args {
				if rng.Intn(5) == 0 {
					head = append(head, t)
				}
			}
		}
		if q, err := cq.NewQuery("Q", head, body); err == nil {
			return q
		}
	}
}

// templates returns n workload templates of up to 15 atoms over the
// Facebook schema, alternating the two shapes the generator has.
func templates(seed int64, n int) []*cq.Query {
	out := make([]*cq.Query, 0, n)
	for _, mark := range []bool{true, false} {
		g := workload.MustNew(fb.Schema(), workload.Options{Seed: seed, MaxSubqueries: 5, FriendScopesMarkIsFriend: mark})
		out = append(out, g.Batch(n/2)...)
	}
	return out
}

func sameBody(a, b *cq.Query) bool {
	if len(a.Body) != len(b.Body) {
		return false
	}
	for i := range a.Body {
		if !a.Body[i].Equal(b.Body[i]) {
			return false
		}
	}
	return true
}

// TestFoldMatchesReference: same scan order, so the same surviving atoms —
// the same core, not merely an isomorph of it.
func TestFoldMatchesReference(t *testing.T) {
	qs := templates(17, 10000)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		qs = append(qs, selfJoinQuery(rng))
	}
	dropped := 0
	for _, q := range qs {
		want, got := refMinimize(q), cq.Minimize(q)
		if !sameBody(want, got) || len(got.Head) != len(q.Head) {
			t.Fatalf("fold of %s\n  kept      %s\n  reference %s", q, got, want)
		}
		if len(got.Body) < len(q.Body) {
			dropped++
		}
		if shared := cq.MinimizeShared(q); (shared == q) != (len(want.Body) == len(q.Body)) {
			t.Fatalf("MinimizeShared(%s) shares its input = %v, reference kept %d of %d atoms",
				q, shared == q, len(want.Body), len(q.Body))
		}
	}
	if dropped < len(qs)/10 {
		t.Fatalf("only %d of %d folds dropped an atom: the differential is not exercising the search", dropped, len(qs))
	}
}

// checkWitness fails unless h is a homomorphism from `from` to `to`.
func checkWitness(t *testing.T, from, to *cq.Query, h cq.Subst) {
	t.Helper()
	for i, ft := range from.Head {
		if h.Apply(ft) != to.Head[i] {
			t.Fatalf("witness %s maps head position %d of %s to %s, want %s", h, i, from, h.Apply(ft), to.Head[i])
		}
	}
	for _, a := range from.Body {
		img, found := h.ApplyAtom(a), false
		for _, b := range to.Body {
			found = found || img.Equal(b)
		}
		if !found {
			t.Fatalf("witness %s maps %s of %s to %s, which is not an atom of %s", h, a, from, img, to)
		}
	}
}

// TestFindHomomorphismMatchesReference: a witness exists iff the
// reference finds one, and it is a homomorphism.
func TestFindHomomorphismMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	found := 0
	check := func(from, to *cq.Query) {
		t.Helper()
		want, got := refFindHomomorphism(from, to), cq.FindHomomorphism(from, to)
		if (want == nil) != (got == nil) {
			t.Fatalf("FindHomomorphism(%s, %s) = %v, reference %v", from, to, got, want)
		}
		if got != nil {
			found++
			checkWitness(t, from, to, got)
		}
		if cq.ContainedIn(to, from) != (want != nil) {
			t.Fatalf("ContainedIn(%s, %s) disagrees with the reference search", to, from)
		}
	}
	for i := 0; i < 4000; i++ {
		q1, q2 := selfJoinQuery(rng), selfJoinQuery(rng)
		check(q1, q2)
		check(q1, refMinimize(q1)) // equivalent by construction: both directions exist
		check(refMinimize(q1), q1)
	}
	for _, q := range templates(29, 600) {
		m := refMinimize(q)
		check(q, m)
		check(m, q)
	}
	if found < 8000 {
		t.Fatalf("only %d witnesses found: the differential is not exercising the positive case", found)
	}
}

// TestFoldBudgetHeadroom: the budget is for inputs nobody generated; the
// paper's own workload, at its largest, stays two orders of magnitude
// inside it.
func TestFoldBudgetHeadroom(t *testing.T) {
	worst := 0
	for _, q := range templates(31, 20000) {
		spent, budget, _ := cq.FoldSteps(q)
		if spent > budget/100 {
			t.Fatalf("fold of %s spent %d of %d steps, more than 1 %%", q, spent, budget)
		}
		worst = max(worst, spent)
	}
	t.Logf("largest fold: %d of %d steps", worst, cq.FoldBudget)
}

// hostileTemplate is a 40-atom boolean query over one binary relation: a
// random digraph on 16 nodes whose core has 34 edges, so that the fold has
// to refute many near-miss homomorphisms (the reference needs ≈ 30 ms).
func hostileTemplate() *cq.Query {
	rng := rand.New(rand.NewSource(1))
	body := make([]cq.Atom, 40)
	for i := range body {
		body[i] = cq.NewAtom("E", cq.V(fmt.Sprintf("n%d", rng.Intn(16))), cq.V(fmt.Sprintf("n%d", rng.Intn(16))))
	}
	return cq.MustQuery("Hostile", nil, body)
}

// TestFoldBudgetHostile: an over-budget fold stops, says so, and fails
// closed — it keeps a superset of the reference's core, so the label can
// only be higher.
func TestFoldBudgetHostile(t *testing.T) {
	q := hostileTemplate()
	spent, budget, alive := cq.FoldSteps(q)
	if spent != budget {
		t.Fatalf("hostile fold spent %d of %d steps: not hostile enough to test the bound", spent, budget)
	}
	f, err := cq.Fold(q)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Exhausted() {
		t.Fatal("fold spent its budget but does not report it")
	}
	core := refMinimize(q)
	kept := make(map[string]bool)
	for i, a := range q.Body {
		if f.Alive(i) {
			kept[a.String()] = true
		}
	}
	f.Release()
	for _, a := range core.Body {
		if !kept[a.String()] {
			t.Fatalf("bounded fold dropped %s, which the exact core keeps", a)
		}
	}
	if alive <= len(core.Body) {
		t.Fatalf("bounded fold kept %d atoms, exact core %d: the bound never bit", alive, len(core.Body))
	}

	cat, err := label.NewCatalog(nil,
		cq.MustParse("Full(x, y) :- E(x, y)"),
		cq.MustParse("Src(x) :- E(x, y)"),
		cq.MustParse("Dst(y) :- E(x, y)"),
		cq.MustParse("Any() :- E(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	l := label.NewLabeler(cat)
	counter := l.(interface{ FoldExhausted() uint64 })
	before := counter.FoldExhausted()
	bounded, err := l.Label(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.FoldExhausted() - before; got != 1 {
		t.Fatalf("FoldExhausted rose by %d, want 1", got)
	}
	exact, err := l.Label(core)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.BelowEq(bounded) {
		t.Fatalf("bounded label %s is not above the exact label %s", bounded.Render(cat), exact.Render(cat))
	}
}
