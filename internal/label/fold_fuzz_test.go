package label_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// FuzzFoldLabel is the metamorphic check on the label-miss path: renaming a
// query's variables and permuting its body atoms changes neither the size
// of its core nor its bit-vector label. (The fold's scan order follows the
// atom order, so the two runs drop different atoms and exercise different
// searches; only the outcome is invariant.) Seeds come from the Section 7.2
// workload generator.
func FuzzFoldLabel(f *testing.F) {
	cat, err := fb.Catalog()
	if err != nil {
		f.Fatal(err)
	}
	l := label.NewLabeler(cat)
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 17, MaxSubqueries: 5, FriendScopesMarkIsFriend: true})
	for i, q := range g.Batch(24) {
		f.Add(q.String(), int64(i))
	}
	f.Add("Q(x) :- friend(x, y, s), friend(y, z, t), friend(z, x, u), friend(a, a, b)", int64(1))
	f.Add("Q() :- likes('a|cb', 'c', x, y), likes('a', 'b|cc', x, z)", int64(2))

	f.Fuzz(func(t *testing.T, src string, seed int64) {
		q, err := cq.ParseQuery(src)
		if err != nil || len(q.Body) > 15 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		iso := q.Clone()
		rng.Shuffle(len(iso.Body), func(i, j int) { iso.Body[i], iso.Body[j] = iso.Body[j], iso.Body[i] })
		ren := make(cq.Subst)
		for i, v := range rng.Perm(len(q.Vars())) {
			ren[q.Vars()[v]] = cq.V(fmt.Sprintf("r%d", i))
		}
		iso = ren.ApplyQuery(iso)

		core, isoCore := 0, 0
		for _, p := range []struct {
			q *cq.Query
			n *int
		}{{q, &core}, {iso, &isoCore}} {
			folded, err := cq.Fold(p.q)
			if err != nil {
				t.Fatalf("parsed query %s refused by the fold: %v", p.q, err)
			}
			for i := range p.q.Body {
				if folded.Alive(i) {
					*p.n++
				}
			}
			exhausted := folded.Exhausted()
			folded.Release()
			if exhausted {
				return // over budget: isomorphs may differ, upward only (TestFoldBudgetHostile)
			}
		}
		if core != isoCore {
			t.Fatalf("core of %s has %d atoms, core of its isomorph %s has %d", q, core, iso, isoCore)
		}
		want, err := l.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Label(iso)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("label of %s is %s, label of its isomorph %s is %s", q, want.Render(cat), iso, got.Render(cat))
		}
	})
}
