package label_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
// mark and 3,000 without, each decided against a view set drawn from the
// Facebook catalog; and 3,000 queries over Wide, whose 41 views put nine
// labels in the spill words (label.WideViews), so AtomLabel.Spill is held
// to the definition too. The view sets are biased to the query's relations
// so that a fair share of the pairs is admitted.
func TestDecisionMatchesDefinition(t *testing.T) {
	c, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	s, views := label.WideViews()
	wide, err := label.NewCatalog(s, views...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2013))
	var d differential
	for _, marked := range []bool{false, true} {
		g := workload.MustNew(fb.Schema(), workload.Options{Seed: 2013, MaxSubqueries: 3, FriendScopesMarkIsFriend: marked})
		for _, q := range g.Batch(3000) {
			d.check(t, c, q, drawPartition(rng, c, q, 0.75))
		}
	}
	for range 3000 {
		q := wideQuery(rng)
		d.check(t, wide, q, drawPartition(rng, wide, q, 0.1))
	}
	t.Logf("%d pairs, %d admitted, %d disagreements", d.pairs, d.admits, d.disagreements)
	if d.disagreements > 0 {
		t.Errorf("%d of %d decisions disagree with the definition", d.disagreements, d.pairs)
	}
}

// FuzzDecisionMatchesDefinition is TestDecisionMatchesDefinition over
// arbitrary query texts and view sets of the Facebook catalog: bit i of
// mask puts the catalog's view i in W. Texts that do not parse, or that the
// schema refuses (the daemon refuses them before labeling), are skipped.
// Seeds come from the Section 7.2 workload generator.
func FuzzDecisionMatchesDefinition(f *testing.F) {
	c, err := fb.Catalog()
	if err != nil {
		f.Fatal(err)
	}
	views := c.Views()
	rng := rand.New(rand.NewSource(7))
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 7, MaxSubqueries: 3, FriendScopesMarkIsFriend: true})
	for _, q := range g.Batch(24) {
		var mask uint64
		for _, v := range drawPartition(rng, c, q, 0.75) {
			mask |= 1 << slices.Index(views, v)
		}
		f.Add(q.String(), mask)
	}
	f.Fuzz(func(t *testing.T, src string, mask uint64) {
		q, err := cq.ParseQuery(src)
		if err != nil || q.ValidateAgainst(fb.Schema()) != nil {
			return
		}
		var w []*cq.Query
		for i, v := range views {
			if mask&(1<<i) != 0 {
				w = append(w, v)
			}
		}
		var d differential
		if d.check(t, c, q, w); d.disagreements > 0 {
			t.Fatalf("%s against %v: the label's decision is not the definition's", q, viewNames(w))
		}
	})
}

// differential counts the decisions it has held to the definition.
type differential struct{ pairs, admits, disagreements int }

// check decides q against w both ways and reports the first five
// disagreements.
func (d *differential) check(t testing.TB, c *label.Catalog, q *cq.Query, w []*cq.Query) {
	t.Helper()
	ql, err := label.NewLabeler(c).Label(q)
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
	d.pairs++
	if want {
		d.admits++
	}
	if got != want {
		if d.disagreements++; d.disagreements <= 5 {
			t.Errorf("%s against %v: label decides %v, definition %v", q, viewNames(w), got, want)
		}
	}
}

// drawPartition draws a view set from the catalog: each view over one of
// q's relations with probability p, each other view with 1/20.
func drawPartition(rng *rand.Rand, c *label.Catalog, q *cq.Query, p float64) []*cq.Query {
	var w []*cq.Query
	for _, v := range c.Views() {
		pv := 0.05
		if slices.ContainsFunc(q.Body, func(a cq.Atom) bool { return a.Rel == v.Body[0].Rel }) {
			pv = p
		}
		if rng.Float64() < pv {
			w = append(w, v)
		}
	}
	return w
}

// wideQuery draws a query over label.WideViews' relation: one or two atoms
// whose positions hold a variable of their own, a variable of the other
// atom's, a shared variable or a constant, under a head of one to three of
// its variables.
func wideQuery(rng *rand.Rand) *cq.Query {
	var atoms, vars []string
	for a := range 1 + rng.Intn(2) {
		args := make([]string, 40)
		for i := range args {
			switch r := rng.Intn(20); {
			case r == 0:
				args[i] = "'c'"
			case r == 1:
				args[i] = "s"
			case r < 4:
				args[i] = fmt.Sprintf("x%d_%d", 1-a, i)
			default:
				args[i] = fmt.Sprintf("x%d_%d", a, i)
			}
			if args[i][0] != '\'' {
				vars = append(vars, args[i])
			}
		}
		atoms = append(atoms, "Wide("+strings.Join(args, ", ")+")")
	}
	head := make([]string, 1+rng.Intn(3))
	for i := range head {
		head[i] = vars[rng.Intn(len(vars))]
	}
	return cq.MustParse("Q(" + strings.Join(head, ", ") + ") :- " + strings.Join(atoms, ", "))
}

func viewNames(w []*cq.Query) []string {
	names := make([]string, len(w))
	for i, v := range w {
		names[i] = v.Name
	}
	return names
}
