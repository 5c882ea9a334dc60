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
// so that a fair share of the pairs is admitted. Every query is labeled
// twice, by the bare labeler and as the daemon's submit path labels it —
// CachedLabeler.LabelPrepared over cq.PrepareQuery, one cache per catalog
// — and both decisions are held to the definition. Last, a query whose fold
// exhausts its step budget is held to the fail-closed half of it.
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
	fbCached := label.NewCachedLabeler(label.NewLabeler(c), 0)
	for _, marked := range []bool{false, true} {
		g := workload.MustNew(fb.Schema(), workload.Options{Seed: 2013, MaxSubqueries: 3, FriendScopesMarkIsFriend: marked})
		for _, q := range g.Batch(3000) {
			d.check(t, fbCached, q, drawPartition(rng, c, q, 0.75))
		}
	}
	wideCached := label.NewCachedLabeler(label.NewLabeler(wide), 0)
	for range 3000 {
		q := wideQuery(rng)
		d.check(t, wideCached, q, drawPartition(rng, wide, q, 0.1))
	}
	t.Logf("%d pairs, %d admitted, %d disagreements", d.pairs, d.admits, d.disagreements)
	if d.disagreements > 0 {
		t.Errorf("%d of %d decisions disagree with the definition", d.disagreements, d.pairs)
	}
	t.Run("fold-exhausted", testExhaustedFoldFailsClosed)
}

// testExhaustedFoldFailsClosed labels a 40-atom self-join over 16 nodes,
// whose fold runs out of its step budget and labels the unminimized body —
// sound, possibly higher — both ways, against every view set of a catalog
// over its one relation. The definition dissects the exact core: the label
// may refuse what it admits, and must admit nothing it refuses.
func testExhaustedFoldFailsClosed(t *testing.T) {
	c, err := label.NewCatalog(nil,
		cq.MustParse("Full(x, y) :- E(x, y)"),
		cq.MustParse("Src(x) :- E(x, y)"),
		cq.MustParse("Dst(y) :- E(x, y)"),
		cq.MustParse("Any() :- E(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	body := make([]cq.Atom, 40)
	for i := range body {
		body[i] = cq.NewAtom("E", cq.V(fmt.Sprintf("n%d", rng.Intn(16))), cq.V(fmt.Sprintf("n%d", rng.Intn(16))))
	}
	q := cq.MustQuery("Hostile", nil, body)
	cached := label.NewCachedLabeler(label.NewLabeler(c), 0)
	bare, err := label.NewLabeler(c).Label(q)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cached.LabelPrepared(cq.PrepareQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if cached.FoldExhausted() != 1 {
		t.Fatalf("the submit path's fold exhausted its budget %d times, want 1: the query does not test the bound", cached.FoldExhausted())
	}
	core := q.Clone()
	for i := 0; i < len(core.Body); i++ {
		smaller := core.Clone()
		smaller.Body = append(smaller.Body[:i], smaller.Body[i+1:]...)
		if cq.ContainedIn(smaller, core) {
			core, i = smaller, i-1
		}
	}
	atoms, err := label.Dissect(core)
	if err != nil {
		t.Fatal(err)
	}
	views := c.Views()
	admitted := 0
	for mask := range 1 << len(views) {
		var w []*cq.Query
		for i, v := range views {
			if mask&(1<<i) != 0 {
				w = append(w, v)
			}
		}
		wl, err := label.LabelViews(c, w)
		if err != nil {
			t.Fatal(err)
		}
		def := order.SingleAtom{}.Below(atoms, w)
		for path, l := range map[string]label.Label{"bare labeler": bare, "submit path": served} {
			if l.BelowEq(wl) {
				admitted++
				if !def {
					t.Errorf("%s admits the exhausted fold against %v, which the definition (core of %d atoms) refuses", path, viewNames(w), len(core.Body))
				}
			}
		}
	}
	t.Logf("core of %d atoms; %d of %d decisions admitted", len(core.Body), admitted, 2<<len(views))
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
		if d.check(t, label.NewCachedLabeler(label.NewLabeler(c), 0), q, w); d.disagreements > 0 {
			t.Fatalf("%s against %v: the label's decision is not the definition's", q, viewNames(w))
		}
	})
}

// differential counts the decisions it has held to the definition.
type differential struct{ pairs, admits, disagreements int }

// check decides q against w by its label — the bare labeler's and the
// submit path's, cached's LabelPrepared — and by the definition, and
// reports the first five disagreements.
func (d *differential) check(t testing.TB, cached *label.CachedLabeler, q *cq.Query, w []*cq.Query) {
	t.Helper()
	c := cached.Catalog()
	bare, err := label.NewLabeler(c).Label(q)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cached.LabelPrepared(cq.PrepareQuery(q))
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
	want := order.SingleAtom{}.Below(atoms, w)
	d.pairs++
	if want {
		d.admits++
	}
	for path, l := range map[string]label.Label{"bare labeler": bare, "submit path": served} {
		if got := l.BelowEq(wl); got != want {
			if d.disagreements++; d.disagreements <= 5 {
				t.Errorf("%s against %v: the %s's label decides %v, definition %v", q, viewNames(w), path, got, want)
			}
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
