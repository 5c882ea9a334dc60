package engine_test

import (
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// renamedCopy returns q with every variable renamed and its body atoms
// permuted: an isomorph that prepares from a text of its own.
func renamedCopy(q *cq.Query, rng *rand.Rand) *cq.Query {
	ren := func(t cq.Term) cq.Term {
		if t.IsVar() {
			return cq.V("r_" + t.Value)
		}
		return t
	}
	c := &cq.Query{Name: "C" + q.Name, Head: make([]cq.Term, len(q.Head))}
	for i, t := range q.Head {
		c.Head[i] = ren(t)
	}
	for _, i := range rng.Perm(len(q.Body)) {
		a := q.Body[i].Clone()
		for j, t := range a.Args {
			a.Args[j] = ren(t)
		}
		c.Body = append(c.Body, a)
	}
	return c
}

// TestPreparedFormDifferential holds the submit path, which interns a
// never-seen text once and hands that form to the label miss and the plan
// compile, to the paths that read the parsed query: over 2,000 generated
// templates of distinct keys and a renamed, atom-permuted copy of each, a
// prepared query's label and fold-budget count are the bit-vector
// labeler's on the parsed text, its answer is the reference evaluator's,
// copies with equal keys compile to equal programs (a memoized entry,
// which keeps only its text, too), and unsafe, unknown-relation and
// wrong-arity queries fail with the texts they always have.
func TestPreparedFormDifferential(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(fb.Schema())
	if err := fb.GenerateGraph(db, 40, 2013); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 2013, MaxSubqueries: 5, FriendScopesMarkIsFriend: true})
	rng := rand.New(rand.NewPCG(2013, 0))
	ref := label.NewLabeler(cat)
	// Large enough that every distinct key misses: each labeler labels
	// one side, so copies miss too.
	origs, copies := label.NewCachedLabeler(label.NewLabeler(cat), 1<<13), label.NewCachedLabeler(label.NewLabeler(cat), 1<<13)
	memo := cq.NewMemo()
	keys := map[string]bool{}
	sameKey, nonEmpty := 0, 0
	for n := 0; len(keys) < 2000; n++ {
		q := g.Next()
		q.Name = "Q" + strconv.Itoa(n)
		src := q.String()
		p, err := memo.Prepare([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if keys[p.Key] {
			continue
		}
		keys[p.Key] = true
		csrc := renamedCopy(q, rng).String()
		cp, err := memo.Prepare([]byte(csrc))
		if err != nil {
			t.Fatalf("%s: %v", csrc, err)
		}
		for _, side := range []struct {
			src string
			p   *cq.Prepared
			l   *label.CachedLabeler
		}{{src, p, origs}, {csrc, cp, copies}} {
			parsed := cq.MustParse(side.src)
			want, err := ref.Label(parsed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := side.l.LabelPrepared(side.p)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: prepared label %v (%v), want %v", side.src, got.Render(cat), err, want.Render(cat))
			}
			ans, err := db.EvalCanonicalAt(snap, side.p)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, err := snap.EvalReference(parsed)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantRows) > 0 {
				nonEmpty++
			}
			if rows := ans.Rows(); !engine.EqualResults(rows, wantRows) {
				t.Fatalf("%s: %d rows, the reference %d", side.src, len(rows), len(wantRows))
			}
		}
		if p.Key != cp.Key {
			continue
		}
		sameKey++
		// The third sighting of the copy's text is a memoized entry, which
		// prepares its text again for the compiler.
		memo.Prepare([]byte(csrc))
		hit, err := memo.Prepare([]byte(csrc))
		if err != nil {
			t.Fatal(err)
		}
		prog, head, consts, err := engine.CompilePrepared(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []*cq.Prepared{cp, hit} {
			cprog, chead, cconsts, err := engine.CompilePrepared(db, other)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prog, cprog) || !reflect.DeepEqual(head, chead) || !reflect.DeepEqual(consts, cconsts) {
				t.Fatalf("%s and %s share key %s but compile to different plans", src, csrc, p.Key)
			}
		}
	}
	if sameKey < 1000 || nonEmpty < 500 {
		t.Fatalf("%d of 2000 copies share their original's key and %d of 4000 answers have rows: too few to tell", sameKey, nonEmpty)
	}
	refExhausted := ref.(interface{ FoldExhausted() uint64 }).FoldExhausted()
	if got := origs.FoldExhausted() + copies.FoldExhausted(); got != refExhausted {
		t.Fatalf("prepared folds exhausted their budget %d times, the parsed texts' %d", got, refExhausted)
	}
	if st := origs.Stats(); st.Misses != 2000 || st.Hits != 0 {
		t.Fatalf("labeling the originals: %s, want 2000 misses", st)
	}

	// Errors keep their texts through the library's submit paths and the
	// engine.
	sys, err := disclosure.NewSystem(fb.Schema(), cat.Views()...)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range cat.Views() {
		names = append(names, v.Name)
	}
	if err := sys.SetPolicy("app", map[string][]string{"all": names}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q              *cq.Query
		submit, engine string // "" is a refusal without an error
	}{
		{&cq.Query{Name: "U", Head: []cq.Term{cq.V("lost")}, Body: []cq.Atom{cq.NewAtom("friend", cq.V("a"), cq.V("b"), cq.V("c"))}},
			"disclosure: labeling U: label: cq: query U is unsafe: head variable lost does not appear in the body",
			"engine: cq: query U is unsafe: head variable lost does not appear in the body"},
		{&cq.Query{Name: "R", Head: []cq.Term{cq.V("a")}, Body: []cq.Atom{cq.NewAtom("nosuch", cq.V("a"))}},
			"", `engine: query R references unknown relation "nosuch"`},
		{&cq.Query{Name: "A", Head: []cq.Term{cq.V("a")}, Body: []cq.Atom{cq.NewAtom("friend", cq.V("a"), cq.V("b"))}},
			"", "engine: query A: atom friend has 2 arguments, relation has arity 3"},
	} {
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		dec, _, err := sys.Submit("app", tc.q)
		dec2, err2 := sys.Decide("app", tc.q)
		r := sys.SubmitPrepared("app", []*disclosure.Prepared{disclosure.PrepareQuery(tc.q)})[0]
		for path, got := range map[string]string{"Submit": errText(err), "Decide": errText(err2), "SubmitPrepared(PrepareQuery)": errText(r.Err)} {
			if got != tc.submit {
				t.Errorf("%s %s: error %q, want %q", path, tc.q, got, tc.submit)
			}
		}
		if dec.Allowed || dec2.Allowed || r.Decision.Allowed {
			t.Errorf("%s was admitted", tc.q)
		}
		_, err = db.Eval(tc.q)
		_, err2 = db.EvalReference(tc.q)
		if errText(err) != tc.engine || errText(err2) != tc.engine {
			t.Errorf("Eval / EvalReference %s: %v / %v, want %q", tc.q, err, err2, tc.engine)
		}
	}
}
