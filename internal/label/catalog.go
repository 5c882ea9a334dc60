// Package label implements the paper's disclosure labelers for conjunctive
// queries over single-atom security views (Sections 4–6):
//
//   - Dissect (Section 5.2): folds a conjunctive query and splits it into
//     single-atom views, promoting shared existential variables.
//   - Three labeler variants matching the Figure-5 experiment: a baseline
//     LabelGen adaptation, a hash-partitioned variant, and the fully
//     optimized variant using packed bit-vector labels (Section 6.1).
//   - The ℓ⁺ label representation: a single-atom label is the set of
//     security views that determine the atom, packed into a 64-bit integer
//     (low 32 bits: relation id; high 32 bits: view mask) with spill words
//     for relations carrying more than 32 views.
package label

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/unify"
)

// Catalog holds the generating set Fgen of single-atom security views,
// organized for the labeling hot path: views are partitioned by the base
// relation they reference, each view is assigned a bit position within its
// relation's mask vocabulary, compiled for the positionwise rewritability
// check and labeled with its own ℓ⁺ set — all once, in NewCatalog. The
// catalog is immutable afterwards and safe for concurrent use.
type Catalog struct {
	schema *schema.Schema // optional; enables query validation
	views  []*cq.Query    // global view list, index = global id
	labels []AtomLabel    // global id → ℓ⁺({view}); shared by every label built from it, never written
	byName map[string]int

	relIDs  map[string]uint32 // relation name → dense id (starting at 1)
	relName []string          // dense id → relation name (index 0 unused)
	byRel   [][]compiledView  // dense id - 1 → the views over that relation, compiled
}

// NewCatalog builds a catalog from single-atom security views. Views must
// have unique names and single-atom bodies. The schema may be nil; when
// present, views are validated against it.
func NewCatalog(s *schema.Schema, views ...*cq.Query) (*Catalog, error) {
	c := &Catalog{
		schema:  s,
		byName:  make(map[string]int, len(views)),
		relIDs:  make(map[string]uint32),
		relName: []string{""},
	}
	for _, v := range views {
		if !v.IsSingleAtom() {
			return nil, fmt.Errorf("label: security view %s is not single-atom; multi-atom security views are not supported (Section 5)", v.Name)
		}
		if s != nil {
			if err := v.ValidateAgainst(s); err != nil {
				return nil, fmt.Errorf("label: security view %s: %w", v.Name, err)
			}
		}
		if _, dup := c.byName[v.Name]; dup {
			return nil, fmt.Errorf("label: duplicate security view name %q", v.Name)
		}
		global := len(c.views)
		c.byName[v.Name] = global
		c.views = append(c.views, v)

		rel := v.Body[0].Rel
		id, ok := c.relIDs[rel]
		if !ok {
			id = uint32(len(c.relName))
			c.relIDs[rel] = id
			c.relName = append(c.relName, rel)
			c.byRel = append(c.byRel, nil)
		}
		bucket := &c.byRel[id-1]
		*bucket = append(*bucket, compiledView{compiledAtom: compileView(v), global: global, bit: len(*bucket)})
	}
	// A view's ℓ⁺ set depends only on the views over its relation, so every
	// view is labeled once, here, after the last one is in.
	d := dissectPool.Get().(*dissection)
	defer d.release()
	c.labels = make([]AtomLabel, len(c.views))
	for _, views := range c.byRel {
		for i := range views {
			c.labels[views[i].global] = d.labelAtom(c, &views[i].compiledAtom)
		}
	}
	return c, nil
}

// MustCatalog is like NewCatalog but panics on error.
func MustCatalog(s *schema.Schema, views ...*cq.Query) *Catalog {
	c, err := NewCatalog(s, views...)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of security views.
func (c *Catalog) Len() int { return len(c.views) }

// Views returns the security views in global-index order.
func (c *Catalog) Views() []*cq.Query { return append([]*cq.Query(nil), c.views...) }

// View returns the view with the given global index.
func (c *Catalog) View(i int) *cq.Query { return c.views[i] }

// ViewByName returns the named view, or nil.
func (c *Catalog) ViewByName(name string) *cq.Query {
	if i, ok := c.byName[name]; ok {
		return c.views[i]
	}
	return nil
}

// Schema returns the catalog's schema (may be nil).
func (c *Catalog) Schema() *schema.Schema { return c.schema }

// RelationID returns the dense id assigned to a relation name, or 0 when no
// security view references the relation.
func (c *Catalog) RelationID(rel string) uint32 { return c.relIDs[rel] }

// RelationName returns the relation name for a dense id.
func (c *Catalog) RelationName(id uint32) string {
	if id == 0 || int(id) >= len(c.relName) {
		return ""
	}
	return c.relName[id]
}

// RelViews returns the security views over the given relation, or nil.
func (c *Catalog) RelViews(rel string) []*cq.Query {
	id, ok := c.relIDs[rel]
	if !ok {
		return nil
	}
	out := make([]*cq.Query, len(c.byRel[id-1]))
	for i, rv := range c.byRel[id-1] {
		out[i] = c.views[rv.global]
	}
	return out
}

// ViewNamesOf maps an atom label back to the names of the security views in
// its ℓ⁺ set, sorted.
func (c *Catalog) ViewNamesOf(a AtomLabel) []string {
	if a.IsTop() {
		return nil
	}
	id := a.RelID()
	if id == 0 || int(id) > len(c.byRel) {
		return nil
	}
	var names []string
	for _, rv := range c.byRel[id-1] {
		if a.HasBit(rv.bit) {
			names = append(names, c.views[rv.global].Name)
		}
	}
	sort.Strings(names)
	return names
}

// ViewSetsOf serializes a label as one sorted security-view name set per
// atom — a rendering independent of the catalog's internal relation-id and
// bit assignment, which is what makes it safe to store on disk (the
// durability layer's checkpoints use it). It fails on labels containing ⊤
// atoms, which name no views; session state never contains them, because
// ⊤-labeled queries are never admitted.
func (c *Catalog) ViewSetsOf(l Label) ([][]string, error) {
	if l.IsBottom() {
		return nil, nil
	}
	out := make([][]string, 0, len(l.Atoms))
	for _, a := range l.Atoms {
		if a.IsTop() {
			return nil, fmt.Errorf("label: ⊤ atom has no view-set rendering")
		}
		names := c.ViewNamesOf(a)
		if len(names) != a.Count() {
			return nil, fmt.Errorf("label: atom references views outside this catalog")
		}
		out = append(out, names)
	}
	return out, nil
}

// LabelFromViewSets rebuilds a label from the view-name sets ViewSetsOf
// produced, against this catalog's current bit assignment. Every set must
// be non-empty and name views over a single relation.
func (c *Catalog) LabelFromViewSets(sets [][]string) (Label, error) {
	if len(sets) == 0 {
		return BottomLabel(), nil
	}
	l := Label{Atoms: make([]AtomLabel, 0, len(sets))}
	for _, names := range sets {
		if len(names) == 0 {
			return Label{}, fmt.Errorf("label: empty view set in serialized label")
		}
		var a AtomLabel
		var relID uint32
		for i, name := range names {
			gi, ok := c.byName[name]
			if !ok {
				return Label{}, fmt.Errorf("label: serialized label references unknown security view %q", name)
			}
			id := c.relIDs[c.views[gi].Body[0].Rel]
			if i == 0 {
				relID = id
				a = NewAtomLabel(relID, len(c.byRel[relID-1]))
			} else if id != relID {
				return Label{}, fmt.Errorf("label: views %q and %q of one serialized atom are over different relations", names[0], name)
			}
			bit := -1
			for _, rv := range c.byRel[id-1] {
				if rv.global == gi {
					bit = rv.bit
					break
				}
			}
			if bit < 0 {
				return Label{}, fmt.Errorf("label: security view %q has no bit over its relation", name)
			}
			a.SetBit(bit)
		}
		l.Atoms = append(l.Atoms, a)
	}
	return l.Normalize(), nil
}

// atomGLBLabel implements the GLBLabel procedure of Section 4.1 the way the
// paper's baseline and hashing-only variants do: it collects the security
// views that dominate v and materializes their greatest lower bound by a
// chain of GLBSingleton unifications (Section 5.1). The returned AtomLabel
// records the ℓ⁺ set (so all three variants produce comparable labels); the
// materialized GLB view is returned for diagnostics. When scanAll is set
// the scan covers every catalog view (no hash partitioning — the paper's
// baseline); otherwise only the views over v's relation are scanned.
func (c *Catalog) atomGLBLabel(v *cq.Query, scanAll bool, glbName string) (AtomLabel, *cq.Query) {
	rel := v.Body[0].Rel
	id, ok := c.relIDs[rel]
	if !ok {
		return TopAtomLabel(), nil
	}
	lbl := NewAtomLabel(id, len(c.byRel[id-1]))
	var glb *cq.Query
	dominated := func(s *cq.Query, bit int) {
		lbl.SetBit(bit)
		// Running GLB, starting from ⊤ (first dominating view).
		if glb == nil {
			glb = s
			return
		}
		if g, err := unify.GLBSingleton(glb, s, glbName); err == nil && g != nil {
			glb = g
		}
	}
	if scanAll {
		// The baseline's wasted work: the rewritability check runs against
		// every view, rejecting cross-relation views one by one.
		for gi, s := range c.views {
			if !rewrite.SingleAtomRewritable(v, s) {
				continue
			}
			for _, rv := range c.byRel[id-1] {
				if rv.global == gi {
					dominated(s, rv.bit)
					break
				}
			}
		}
	} else {
		for _, rv := range c.byRel[id-1] {
			if s := c.views[rv.global]; rewrite.SingleAtomRewritable(v, s) {
				dominated(s, rv.bit)
			}
		}
	}
	if lbl.Empty() {
		return TopAtomLabel(), nil
	}
	return lbl, glb
}
