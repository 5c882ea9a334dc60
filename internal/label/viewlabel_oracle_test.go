package label_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/rewrite"
	"repro/internal/schema"
)

// definitionAtom is ℓ⁺({v}) by the paper's definition: the security views S
// over v's relation with {v} ≼ {S} under the generic single-atom criterion,
// at the bit positions the catalog assigned them; ⊤ when there are none.
// It is the oracle for the labels the catalog stores at construction.
func definitionAtom(c *label.Catalog, v *cq.Query) label.AtomLabel {
	rel := v.Body[0].Rel
	views := c.RelViews(rel) // in bit order
	a := label.NewAtomLabel(c.RelationID(rel), len(views))
	for bit, s := range views {
		if rewrite.SingleAtomRewritable(v, s) {
			a.SetBit(bit)
		}
	}
	if a.Empty() {
		return label.TopAtomLabel()
	}
	return a
}

// definitionLabel joins the definition's atoms of a set of views.
func definitionLabel(c *label.Catalog, views []*cq.Query) label.Label {
	l := label.Label{}
	for _, v := range views {
		l.Atoms = append(l.Atoms, definitionAtom(c, v))
	}
	return l.Normalize()
}

func sameAtom(a, b label.AtomLabel) bool {
	return a.Packed == b.Packed && slices.Equal(a.Spill, b.Spill)
}

func sameLabel(a, b label.Label) bool {
	return slices.EqualFunc(a.Atoms, b.Atoms, sameAtom)
}

// storedAtom reads a catalog view's stored label through LabelViews.
func storedAtom(t testing.TB, c *label.Catalog, i int) label.AtomLabel {
	t.Helper()
	l, err := label.LabelViews(c, []*cq.Query{c.View(i)})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Atoms) != 1 {
		t.Fatalf("view %s labels to %d atoms", c.View(i).Name, len(l.Atoms))
	}
	return l.Atoms[0]
}

// randomArity is the schema of the random catalogs.
var randomArity = map[string]int{"R": 3, "S": 2, "T": 4}

// randomCatalog builds a catalog of single-atom views over three small
// relations: arguments drawn from a few variables (so some repeat) and two
// constants, heads a random subset of the body's variables (the rest are
// existential). The first relation carries more views than the others.
func randomCatalog(t testing.TB, rng *rand.Rand, nviews int) *label.Catalog {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b", "c"),
		schema.MustRelation("S", "a", "b"),
		schema.MustRelation("T", "a", "b", "c", "d"),
	)
	var views []*cq.Query
	for i := 0; i < nviews; i++ {
		views = append(views, randomView(rng, "v"+strconv.Itoa(i), []string{"R", "R", "S", "T"}[rng.Intn(4)]))
	}
	c, err := label.NewCatalog(s, views...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomView(rng *rand.Rand, name, rel string) *cq.Query {
	args := make([]cq.Term, randomArity[rel])
	var vars []cq.Term
	for j := range args {
		if rng.Intn(6) == 0 {
			args[j] = cq.C([]string{"a", "b"}[rng.Intn(2)])
			continue
		}
		args[j] = cq.V("x" + strconv.Itoa(rng.Intn(3)))
		if !slices.Contains(vars, args[j]) {
			vars = append(vars, args[j])
		}
	}
	var head []cq.Term
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	q, err := cq.NewQuery(name, head, []cq.Atom{{Rel: rel, Args: args}})
	if err != nil {
		panic(err)
	}
	return q
}

// wideCatalog has 41 views over one 40-column relation (the full view and
// one projection per column), so labels carry spill words.
func wideCatalog(t testing.TB) *label.Catalog {
	t.Helper()
	attrs := make([]string, 40)
	full := make([]cq.Term, 40)
	for i := range attrs {
		attrs[i] = "a" + strconv.Itoa(i)
		full[i] = cq.V("x" + strconv.Itoa(i))
	}
	views := []*cq.Query{{Name: "full", Head: full, Body: []cq.Atom{{Rel: "Wide", Args: full}}}}
	for i := range attrs {
		views = append(views, &cq.Query{Name: "proj" + strconv.Itoa(i), Head: []cq.Term{full[i]}, Body: []cq.Atom{{Rel: "Wide", Args: full}}})
	}
	c, err := label.NewCatalog(schema.MustNew(schema.MustRelation("Wide", attrs...)), views...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oracleCatalogs are the three kinds of catalog the stored labels are
// checked on: the Facebook catalog, seeded random ones and a wide one.
func oracleCatalogs(t testing.TB) map[string]*label.Catalog {
	views, err := fb.SecurityViews(fb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]*label.Catalog{"facebook": label.MustCatalog(fb.Schema(), views...), "wide": wideCatalog(t)}
	for seed := int64(1); seed <= 40; seed++ {
		cats[fmt.Sprintf("random-%d", seed)] = randomCatalog(t, rand.New(rand.NewSource(seed)), 4+int(seed%24))
	}
	return cats
}

// TestStoredViewLabelsMatchDefinition checks the labels the catalog
// computes once, at construction, against the definition: every catalog
// view's stored label, every single-atom view that is not the catalog's
// own, and every partition of random policies.
func TestStoredViewLabelsMatchDefinition(t *testing.T) {
	for name, c := range oracleCatalogs(t) {
		rng := rand.New(rand.NewSource(int64(len(name))))
		for i := 0; i < c.Len(); i++ {
			v := c.View(i)
			if got, want := storedAtom(t, c, i), definitionAtom(c, v); !sameAtom(got, want) {
				t.Errorf("%s: stored ℓ⁺(%s) = %v (%v), definition %v (%v)", name, v.Name, got, c.ViewNamesOf(got), want, c.ViewNamesOf(want))
			}
			// The same view under another identity is compiled on the spot.
			clone := v.Clone()
			clone.Name = "other"
			got, err := label.LabelViews(c, []*cq.Query{clone})
			if err != nil {
				t.Fatal(err)
			}
			if want := definitionLabel(c, []*cq.Query{clone}); !sameLabel(got, want) {
				t.Errorf("%s: label of a copy of %s = %v, definition %v", name, v.Name, got, want)
			}
		}
		if name != "facebook" && name != "wide" {
			// Views that are not in the catalog, labeled by the same criterion.
			for k := 0; k < 30; k++ {
				v := randomView(rng, "loose", []string{"R", "S", "T"}[rng.Intn(3)])
				got, err := label.LabelViews(c, []*cq.Query{v})
				if err != nil {
					t.Fatal(err)
				}
				if want := definitionLabel(c, []*cq.Query{v}); !sameLabel(got, want) {
					t.Errorf("%s: label of %s = %v, definition %v", name, v, got, want)
				}
			}
		}
		for k := 0; k < 20; k++ {
			parts := randomPartitions(rng, c)
			p, err := policy.New(c, parts)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range p.Partitions() {
				want := definitionLabel(c, viewsOf(c, parts[part.Name]))
				if got := part.Label.Render(c); got != want.Render(c) || !sameLabel(part.Label, want) {
					t.Errorf("%s: partition %s %v labels %s, definition %s", name, part.Name, parts[part.Name], got, want.Render(c))
				}
			}
		}
	}
}

// TestStoredViewLabelsAreNeverWritten builds many policies from one
// catalog, joins and normalizes their labels with each other and with
// query labels, and checks that every stored label — spill words
// included — is bit-identical afterwards: the stored atoms are shared by
// every label built from them.
func TestStoredViewLabelsAreNeverWritten(t *testing.T) {
	for name, c := range oracleCatalogs(t) {
		before := make([]label.AtomLabel, c.Len())
		for i := range before {
			a := storedAtom(t, c, i)
			before[i] = label.AtomLabel{Packed: a.Packed, Spill: slices.Clone(a.Spill)}
		}
		rng := rand.New(rand.NewSource(7))
		l := label.NewLabeler(c)
		acc := label.BottomLabel()
		for k := 0; k < 50; k++ {
			p, err := policy.New(c, randomPartitions(rng, c))
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range p.Partitions() {
				acc = acc.Join(part.Label)
				_ = part.Label.Join(acc).Normalize()
				v := c.View(rng.Intn(c.Len())).Clone()
				v.Name = "Q"
				if q, err := l.Label(v); err == nil {
					acc = q.Join(acc)
				}
			}
			m := policy.NewMonitor(p)
			m.Submit(acc)
		}
		for i := range before {
			if got := storedAtom(t, c, i); !sameAtom(got, before[i]) {
				t.Errorf("%s: stored label of %s changed from %v to %v", name, c.View(i).Name, before[i], got)
			}
		}
	}
}

// randomPartitions draws one to four partitions of one to eight of the
// catalog's views.
func randomPartitions(rng *rand.Rand, c *label.Catalog) map[string][]string {
	parts := map[string][]string{}
	for n := 1 + rng.Intn(4); len(parts) < n; {
		var names []string
		for k := 1 + rng.Intn(8); k > 0; k-- {
			names = append(names, c.View(rng.Intn(c.Len())).Name)
		}
		parts["W"+strconv.Itoa(len(parts))] = names
	}
	return parts
}

func viewsOf(c *label.Catalog, names []string) []*cq.Query {
	out := make([]*cq.Query, len(names))
	for i, n := range names {
		out[i] = c.ViewByName(n)
	}
	return out
}

// FuzzPolicyLabel installs arbitrary policies over the Facebook catalog.
// The input is partitions separated by ';', each "name=view,view,...";
// a view token "#n" names the catalog's view n (mod its size), any other
// token is taken literally. policy.New must not panic, must fail exactly
// when there is no partition or a name is not a catalog view, and an
// accepted policy's partitions must carry the definition's labels.
func FuzzPolicyLabel(f *testing.F) {
	cat, err := fb.Catalog()
	if err != nil {
		f.Fatal(err)
	}
	f.Add("all=#0,#1,#2,#3,#4,#5,#6,#7,#8,#9,#10,#11,#12,#13,#14,#15,#16,#17,#18,#19,#20,#21,#22,#23,#24,#25,#26,#27,#28,#29,#30,#31,#32,#33,#34,#35")
	f.Add("profile=user_basic,friend_list;media=album_self,friend_list;places=#20")
	f.Add("W1=user_basic;W2=nope")
	f.Add("W=")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		parts := map[string][]string{}
		for _, p := range strings.Split(spec, ";") {
			name, views, ok := strings.Cut(p, "=")
			if !ok {
				continue
			}
			var names []string
			for _, tok := range strings.Split(views, ",") {
				if n, err := strconv.Atoi(strings.TrimPrefix(tok, "#")); err == nil && strings.HasPrefix(tok, "#") && n >= 0 {
					tok = cat.View(n % cat.Len()).Name
				}
				names = append(names, tok)
			}
			parts[name] = names
		}
		unknown := len(parts) == 0
		for _, names := range parts {
			for _, n := range names {
				unknown = unknown || cat.ViewByName(n) == nil
			}
		}
		p, err := policy.New(cat, parts)
		if (err != nil) != unknown {
			t.Fatalf("policy.New(%q) error %v, want an error: %v", parts, err, unknown)
		}
		if err != nil {
			return
		}
		got := p.Partitions()
		want := slices.Sorted(maps.Keys(parts))
		if len(got) != len(want) {
			t.Fatalf("%d partitions, want %d", len(got), len(want))
		}
		for i, part := range got {
			if part.Name != want[i] {
				t.Fatalf("partition %d is %q, want %q", i, part.Name, want[i])
			}
			def := definitionLabel(cat, viewsOf(cat, parts[part.Name]))
			if !sameLabel(part.Label, def) {
				t.Fatalf("partition %s labels %s, definition %s", part.Name, part.Label.Render(cat), def.Render(cat))
			}
		}
	})
}
