package label

import (
	"fmt"
	"sort"
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
// deployment would use. All views are precompiled at construction, so the
// returned labeler is read-only afterwards and safe for concurrent use.
func NewLabeler(c *Catalog) Labeler {
	l := &bitVectorLabeler{cat: c, compiled: make([][]compiledView, len(c.byRel))}
	for i := range c.byRel {
		for _, rv := range c.byRel[i] {
			l.compiled[i] = append(l.compiled[i], compileView(c.views[rv.global], rv.bit))
		}
	}
	return l
}

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
	compiled  [][]compiledView // per relation id - 1; built eagerly, read-only after construction
	exhausted atomic.Uint64    // labelings whose fold ran out of budget
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
// single-atom rewritability check: per-position term kinds and variable
// identifiers replace repeated map lookups and allocations.
type compiledView struct {
	bit      int
	arity    int
	kinds    []int8   // per position: 0 const, 1 distinguished, 2 existential
	consts   []string // constant value per const position
	varIDs   []int32  // dense variable id per var position
	nvars    int
	existVar []bool // per dense var id
}

const (
	kConst int8 = iota
	kDist
	kExist
)

func compileView(v *cq.Query, bit int) compiledView {
	a := v.Body[0]
	roles := v.VarRoles()
	cv := compiledView{
		bit:    bit,
		arity:  len(a.Args),
		kinds:  make([]int8, len(a.Args)),
		consts: make([]string, len(a.Args)),
		varIDs: make([]int32, len(a.Args)),
	}
	ids := make(map[string]int32)
	for i, t := range a.Args {
		if t.IsConst() {
			cv.kinds[i] = kConst
			cv.consts[i] = t.Value
			cv.varIDs[i] = -1
			continue
		}
		id, ok := ids[t.Value]
		if !ok {
			id = int32(len(ids))
			ids[t.Value] = id
			cv.existVar = append(cv.existVar, roles[t.Value] == cq.Existential)
		}
		cv.varIDs[i] = id
		if roles[t.Value] == cq.Existential {
			cv.kinds[i] = kExist
		} else {
			cv.kinds[i] = kDist
		}
	}
	cv.nvars = len(ids)
	return cv
}

// rewritableCompiled is the allocation-light version of the positionwise
// criterion in rewrite.SingleAtom: it decides {v} ≼ {s} for a compiled
// query atom v and compiled security view s. Scratch slices are provided by
// the caller and must hold at least s.nvars and v.nvars entries.
func rewritableCompiled(v *compiledAtom, s *compiledView, sMap []int32, sMapConst []string, exOwner []int32) bool {
	if s.arity != len(v.kinds) {
		return false
	}
	for i := 0; i < s.nvars; i++ {
		sMap[i] = -2 // unassigned
	}
	for i := 0; i < v.nvars; i++ {
		exOwner[i] = -2
	}
	// Rules 2–4: positionwise compatibility plus functional s-var mapping.
	for j := 0; j < s.arity; j++ {
		switch s.kinds[j] {
		case kConst:
			if v.kinds[j] != kConst || v.args[j].Value != s.consts[j] {
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
	for j := 0; j < s.arity; j++ {
		if s.kinds[j] == kExist {
			vv := v.varIDs[j]
			if prev := exOwner[vv]; prev == -2 {
				exOwner[vv] = s.varIDs[j]
			} else if prev != s.varIDs[j] {
				return false
			}
		}
	}
	for j := 0; j < s.arity; j++ {
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
	d := dissectPool.Get().(*dissection)
	defer d.release()
	exhausted, err := d.dissect(q)
	if err != nil {
		return Label{}, err
	}
	if exhausted {
		l.exhausted.Add(1)
	}
	for i := range d.atoms {
		ca := &d.atoms[i]
		relID := l.cat.relIDs[ca.rel]
		if relID == 0 {
			d.labels = append(d.labels, TopAtomLabel())
			continue
		}
		views := l.compiled[relID-1]
		al := NewAtomLabel(relID, len(views))
		d.exOwner = grow(d.exOwner, ca.nvars)
		for k := range views {
			s := &views[k]
			if s.nvars > len(d.sMap) {
				d.sMap = make([]int32, s.nvars)
				d.sMapConst = make([]string, s.nvars)
			}
			if rewritableCompiled(ca, s, d.sMap, d.sMapConst, d.exOwner) {
				al.SetBit(s.bit)
			}
		}
		if al.Empty() {
			al = TopAtomLabel()
		}
		d.labels = append(d.labels, al)
	}
	return Label{Atoms: d.labels}.Normalize(), nil
}

// FoldExhausted counts the labelings whose fold ran out of its step budget
// (cq.Fold): those labels are sound but possibly higher than the exact one.
func (l *bitVectorLabeler) FoldExhausted() uint64 { return l.exhausted.Load() }

// LabelViews computes the label of an explicit set of single-atom views —
// used to label policy partitions, whose W_i are security-view sets rather
// than queries.
func LabelViews(c *Catalog, views []*cq.Query) (Label, error) {
	lbl := Label{Atoms: make([]AtomLabel, 0, len(views))}
	for _, v := range views {
		if !v.IsSingleAtom() {
			return Label{}, fmt.Errorf("label: %s is not a single-atom view", v.Name)
		}
		lbl.Atoms = append(lbl.Atoms, c.atomLabelFor(v))
	}
	return lbl.Normalize(), nil
}

// NaiveLabelSets implements the NaïveLabel procedure of Section 3.3 at the
// catalog level, for diagnostics and tests: given a family F of security-
// view subsets (by view name) it returns the name-set of the first family
// element (in increasing disclosure order) whose information dominates the
// query's, or nil when only ⊤ qualifies.
func NaiveLabelSets(c *Catalog, family [][]string, q *cq.Query) ([]string, error) {
	lbl, err := NewLabeler(c).Label(q)
	if err != nil {
		return nil, err
	}
	type entry struct {
		names []string
		lbl   Label
	}
	entries := make([]entry, 0, len(family))
	for _, names := range family {
		views := make([]*cq.Query, 0, len(names))
		for _, n := range names {
			v := c.ViewByName(n)
			if v == nil {
				return nil, fmt.Errorf("label: unknown security view %q in family", n)
			}
			views = append(views, v)
		}
		fl, err := LabelViews(c, views)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{names: names, lbl: fl})
	}
	// Linear extension of increasing disclosure: sort by how many family
	// members dominate each entry (more dominators = lower disclosure).
	dominators := func(e entry) int {
		n := 0
		for _, o := range entries {
			if e.lbl.BelowEq(o.lbl) {
				n++
			}
		}
		return n
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return dominators(entries[i]) > dominators(entries[j])
	})
	for _, e := range entries {
		if lbl.BelowEq(e.lbl) {
			out := append([]string(nil), e.names...)
			sort.Strings(out)
			return out, nil
		}
	}
	return nil, nil
}
