package label

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cq"
)

// Labeler computes disclosure labels for conjunctive queries against a
// catalog of single-atom security views. The three implementations mirror
// the three measured variants of the paper's Figure-5 experiment.
type Labeler interface {
	// Label computes the disclosure label of q.
	Label(q *cq.Query) (Label, error)
	// Name identifies the variant in benchmark output.
	Name() string
	// Catalog returns the underlying security-view catalog.
	Catalog() *Catalog
}

// NewLabeler returns the fully optimized labeler (hash partitioning by
// relation plus packed bit-vector labels) — the variant a production
// deployment would use. It matches against the views the catalog compiled
// at construction, so it is read-only and safe for concurrent use.
func NewLabeler(c *Catalog) Labeler { return &bitVectorLabeler{cat: c} }

// NewBaselineLabeler returns the baseline variant: a direct adaptation of
// the LabelGen algorithm of Section 4.2 that scans every security view for
// every dissected atom, with no relation partitioning.
func NewBaselineLabeler(c *Catalog) Labeler { return &baselineLabeler{cat: c} }

// NewHashedLabeler returns the intermediate variant: security views are
// hash-partitioned by base relation, but labels are still assembled with
// the same per-view scan as the optimized variant minus precompiled
// matching.
func NewHashedLabeler(c *Catalog) Labeler { return &hashedLabeler{cat: c} }

// bitVectorLabeler: hashing + bit vectors + precompiled view matchers.
type bitVectorLabeler struct {
	cat       *Catalog
	exhausted atomic.Uint64 // labelings whose fold ran out of budget
}

// baselineLabeler: full scan over all security views per atom.
type baselineLabeler struct{ cat *Catalog }

// hashedLabeler: per-relation scan using the generic rewritability check.
type hashedLabeler struct{ cat *Catalog }

func (l *baselineLabeler) Name() string      { return "baseline" }
func (l *baselineLabeler) Catalog() *Catalog { return l.cat }
func (l *hashedLabeler) Name() string        { return "hashing" }
func (l *hashedLabeler) Catalog() *Catalog   { return l.cat }
func (l *bitVectorLabeler) Name() string     { return "bitvec+hashing" }
func (l *bitVectorLabeler) Catalog() *Catalog {
	return l.cat
}

func (l *baselineLabeler) Label(q *cq.Query) (Label, error) {
	return labelVia(q, func(v *cq.Query) AtomLabel {
		a, _ := l.cat.atomGLBLabel(v, true, "glb")
		return a
	})
}

func (l *hashedLabeler) Label(q *cq.Query) (Label, error) {
	return labelVia(q, func(v *cq.Query) AtomLabel {
		a, _ := l.cat.atomGLBLabel(v, false, "glb")
		return a
	})
}

func labelVia(q *cq.Query, atomLabel func(*cq.Query) AtomLabel) (Label, error) {
	atoms, err := Dissect(q)
	if err != nil {
		return Label{}, err
	}
	lbl := Label{Atoms: make([]AtomLabel, 0, len(atoms))}
	for _, v := range atoms {
		lbl.Atoms = append(lbl.Atoms, atomLabel(v))
	}
	return lbl.Normalize(), nil
}

// compiledView is a security view preprocessed for the positionwise
// single-atom rewritability check — the same compiled form a dissected
// query atom takes — plus its place in the catalog.
type compiledView struct {
	compiledAtom
	global int // index into Catalog.views
	bit    int // bit position within the relation's mask
}

const (
	kConst int8 = iota
	kDist
	kExist
)

// compileView compiles a single-atom view into the form dissect gives a
// query atom: a single atom is its own core, and its distinguished
// variables are its head's. Views are short, so earlier occurrences and
// the head are scanned rather than hashed.
func compileView(v *cq.Query) compiledAtom {
	args := v.Body[0].Args
	ca := compiledAtom{rel: v.Body[0].Rel, args: args, kinds: make([]int8, len(args)), varIDs: make([]int32, len(args))}
	for i, t := range args {
		if t.IsConst() {
			ca.kinds[i], ca.varIDs[i] = kConst, -1
			continue
		}
		if j := slices.Index(args[:i], t); j >= 0 {
			ca.varIDs[i] = ca.varIDs[j]
		} else {
			ca.varIDs[i] = int32(ca.nvars)
			ca.nvars++
		}
		if slices.Contains(v.Head, t) {
			ca.kinds[i] = kDist
		} else {
			ca.kinds[i] = kExist
		}
	}
	return ca
}

// rewritableCompiled is the allocation-light version of the positionwise
// criterion in rewrite.SingleAtom: it decides {v} ≼ {s} for a compiled
// query atom v and compiled security view s. Scratch slices are provided by
// the caller and must hold at least s.nvars and v.nvars entries.
func rewritableCompiled(v, s *compiledAtom, sMap []int32, sMapConst []string, exOwner []int32) bool {
	arity := len(s.kinds)
	if arity != len(v.kinds) {
		return false
	}
	for i := 0; i < s.nvars; i++ {
		sMap[i] = -2 // unassigned
	}
	for i := 0; i < v.nvars; i++ {
		exOwner[i] = -2
	}
	// Rules 2–4: positionwise compatibility plus functional s-var mapping.
	for j := 0; j < arity; j++ {
		switch s.kinds[j] {
		case kConst:
			if v.kinds[j] != kConst || v.args[j].Value != s.args[j].Value {
				return false
			}
		case kExist:
			if v.kinds[j] != kExist {
				return false
			}
			sv := s.varIDs[j]
			if prev := sMap[sv]; prev == -2 {
				sMap[sv] = v.varIDs[j]
			} else if prev != v.varIDs[j] {
				return false
			}
		case kDist:
			sv := s.varIDs[j]
			if v.kinds[j] == kConst {
				if prev := sMap[sv]; prev == -2 {
					sMap[sv] = -1
					sMapConst[sv] = v.args[j].Value
				} else if prev != -1 || sMapConst[sv] != v.args[j].Value {
					return false
				}
			} else {
				if prev := sMap[sv]; prev == -2 {
					sMap[sv] = v.varIDs[j]
				} else if prev != v.varIDs[j] {
					return false
				}
			}
		}
	}
	// Rule 5: each v-existential covered by an s-existential must be
	// covered by that same s-existential at every occurrence.
	for j := 0; j < arity; j++ {
		if s.kinds[j] == kExist {
			vv := v.varIDs[j]
			if prev := exOwner[vv]; prev == -2 {
				exOwner[vv] = s.varIDs[j]
			} else if prev != s.varIDs[j] {
				return false
			}
		}
	}
	for j := 0; j < arity; j++ {
		if s.kinds[j] == kConst || v.varIDs[j] < 0 {
			continue
		}
		if owner := exOwner[v.varIDs[j]]; owner != -2 {
			if s.kinds[j] != kExist || s.varIDs[j] != owner {
				return false
			}
		}
	}
	return true
}

// Label implements the fully optimized labeling path: the distinct atoms
// of the folded body are compiled into flat term-kind arrays from the
// query's interned form (no folded copy of the query, no intermediate view
// objects, no per-variable string maps) and matched against precompiled
// security views, producing packed bit-vector labels — the Section 6.1
// representation computed in place. All scratch is pooled: what a call
// allocates is the label it returns.
func (l *bitVectorLabeler) Label(q *cq.Query) (Label, error) {
	return l.labelFolded(cq.Fold(q))
}

// labelPrepared is Label for a prepared query, on a label-cache miss: it
// folds the form the query was prepared with (cq.Prepared.Fold), in the
// query's own atom order, so the label and the fold budget spent are
// Label's, with no second intern.
func (l *bitVectorLabeler) labelPrepared(p *cq.Prepared) (Label, error) {
	return l.labelFolded(p.Fold())
}

// labelFolded labels a folded query and releases its form.
func (l *bitVectorLabeler) labelFolded(f *cq.Form, err error) (Label, error) {
	if err != nil {
		return Label{}, fmt.Errorf("label: %w", err)
	}
	defer f.Release()
	if f.Exhausted() {
		l.exhausted.Add(1)
	}
	d := dissectPool.Get().(*dissection)
	defer d.release()
	d.dissect(f)
	for i := range d.atoms {
		d.labels = append(d.labels, d.labelAtom(l.cat, &d.atoms[i]))
	}
	return Label{Atoms: d.labels}.Normalize(), nil
}

// labelAtom computes ℓ⁺ of one compiled atom: the bits of the catalog's
// compiled views over its relation that determine it, or ⊤ when none does.
// It is the one criterion behind query labels and security-view labels.
func (d *dissection) labelAtom(c *Catalog, ca *compiledAtom) AtomLabel {
	relID := c.relIDs[ca.rel]
	if relID == 0 {
		return TopAtomLabel()
	}
	views := c.byRel[relID-1]
	al := NewAtomLabel(relID, len(views))
	d.exOwner = grow(d.exOwner, ca.nvars)
	for k := range views {
		s := &views[k]
		if s.nvars > len(d.sMap) {
			d.sMap = make([]int32, s.nvars)
			d.sMapConst = make([]string, s.nvars)
		}
		if rewritableCompiled(ca, &s.compiledAtom, d.sMap, d.sMapConst, d.exOwner) {
			al.SetBit(s.bit)
		}
	}
	if al.Empty() {
		return TopAtomLabel()
	}
	return al
}

// FoldExhausted counts the labelings whose fold ran out of its step budget
// (cq.Fold): those labels are sound but possibly higher than the exact one.
func (l *bitVectorLabeler) FoldExhausted() uint64 { return l.exhausted.Load() }

// LabelViews computes the label of an explicit set of single-atom views —
// used to label policy partitions, whose W_i are security-view sets rather
// than queries. A catalog view's ℓ⁺ set is looked up: NewCatalog computed
// it, and the result's atoms share their spill words with the catalog, so
// they must not be written. Any other view is compiled and matched by the
// criterion query atoms are.
func LabelViews(c *Catalog, views []*cq.Query) (Label, error) {
	lbl := Label{Atoms: make([]AtomLabel, 0, len(views))}
	for _, v := range views {
		if !v.IsSingleAtom() {
			return Label{}, fmt.Errorf("label: %s is not a single-atom view", v.Name)
		}
		if gi, ok := c.byName[v.Name]; ok && c.views[gi] == v {
			lbl.Atoms = append(lbl.Atoms, c.labels[gi])
			continue
		}
		d := dissectPool.Get().(*dissection)
		ca := compileView(v)
		lbl.Atoms = append(lbl.Atoms, d.labelAtom(c, &ca))
		d.release()
	}
	return lbl.Normalize(), nil
}
