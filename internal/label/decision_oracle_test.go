package label_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/workload"
)

// TestDecisionMatchesDefinition holds the fast path's decision for one
// query against one partition W — the query's label below W's,
// Label(q).BelowEq(LabelViews(W)) — to the paper's definition: the
// dissection of q (Section 5.2) below W under the complete single-atom
// rewriting criterion of Section 5.1 (order.SingleAtom). The queries are
// the Section 7.2 workload, 3,000 with the friend-scoped views' is_friend
// mark and 3,000 without; each is decided against a view set drawn from
// the Facebook catalog, biased to the query's relations so that a fair
// share of the pairs is admitted.
func TestDecisionMatchesDefinition(t *testing.T) {
	c, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	l := label.NewLabeler(c)
	rng := rand.New(rand.NewSource(2013))
	pairs, admits, disagreements := 0, 0, 0
	for _, marked := range []bool{false, true} {
		g := workload.MustNew(fb.Schema(), workload.Options{Seed: 2013, MaxSubqueries: 3, FriendScopesMarkIsFriend: marked})
		for _, q := range g.Batch(3000) {
			w := drawPartition(rng, c, q)
			ql, err := l.Label(q)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := label.LabelViews(c, w)
			if err != nil {
				t.Fatal(err)
			}
			atoms, err := label.Dissect(q)
			if err != nil {
				t.Fatal(err)
			}
			got, want := ql.BelowEq(wl), order.SingleAtom{}.Below(atoms, w)
			pairs++
			if want {
				admits++
			}
			if got != want {
				if disagreements++; disagreements <= 5 {
					t.Errorf("%s against %v: label decides %v, definition %v", q, viewNames(w), got, want)
				}
			}
		}
	}
	t.Logf("%d pairs, %d admitted, %d disagreements", pairs, admits, disagreements)
	if disagreements > 0 {
		t.Errorf("%d of %d decisions disagree with the definition", disagreements, pairs)
	}
}

// drawPartition draws a view set from the catalog: each view over one of
// q's relations with probability 3/4, each other view with 1/20.
func drawPartition(rng *rand.Rand, c *label.Catalog, q *cq.Query) []*cq.Query {
	var w []*cq.Query
	for _, v := range c.Views() {
		p := 0.05
		if slices.ContainsFunc(q.Body, func(a cq.Atom) bool { return a.Rel == v.Body[0].Rel }) {
			p = 0.75
		}
		if rng.Float64() < p {
			w = append(w, v)
		}
	}
	return w
}

func viewNames(w []*cq.Query) []string {
	names := make([]string, len(w))
	for i, v := range w {
		names[i] = v.Name
	}
	return names
}
