package label

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cq"
)

// Dissect converts a conjunctive query into a set of single-atom views
// whose combined disclosure dominates the query's — the first stage of the
// multi-atom labeler (Section 5.2 of the paper).
//
// The algorithm first computes a folding (minimization) of the query, then
// splits the folded body into its constituent atoms, promoting to
// distinguished any existential variable that appears in at least two
// atoms: a set of single-atom views that allows a join to be computed must
// reveal the values of the join attributes (Example 5.4).
//
// The returned views are deduplicated up to variable renaming; each view's
// head lists its distinguished variables in first-occurrence order and its
// name is derived from the query's name.
func Dissect(q *cq.Query) ([]*cq.Query, error) {
	f, err := cq.Fold(q)
	if err != nil {
		return nil, fmt.Errorf("label: %w", err)
	}
	defer f.Release()
	d := dissectPool.Get().(*dissection)
	defer d.release()
	d.dissect(f)
	out := make([]*cq.Query, 0, len(d.atoms))
	for i := range d.atoms {
		ca := &d.atoms[i]
		var head []cq.Term
		next := int32(0)
		for j, id := range ca.varIDs {
			if id == next { // first occurrence: local ids are dense in that order
				next++
				if ca.kinds[j] == kDist {
					head = append(head, ca.args[j])
				}
			}
		}
		// Direct construction: safety holds because every head variable
		// was just drawn from the atom.
		out = append(out, &cq.Query{
			Name: q.Name + "_atom" + strconv.Itoa(ca.ord),
			Head: head,
			Body: []cq.Atom{{Rel: ca.rel, Args: append([]cq.Term(nil), ca.args...)}},
		})
	}
	return out, nil
}

// compiledAtom is a dissected query atom in the form the positionwise
// rewritability check reads: per position a term kind and, for variables, a
// dense id local to the atom in first-occurrence order. Two dissected atoms
// are the same single-atom view up to variable renaming exactly when these
// arrays (and the constants) agree.
type compiledAtom struct {
	ord    int       // position in the folded body
	rel    string    // relation name
	args   []cq.Term // the query atom's own arguments (constant values)
	kinds  []int8    // per position: kConst, kDist or kExist
	varIDs []int32   // per position: local variable id, or -1
	nvars  int
}

// same reports whether the two atoms are one view up to variable renaming.
func (a *compiledAtom) same(b *compiledAtom) bool {
	if a.rel != b.rel || len(a.kinds) != len(b.kinds) {
		return false
	}
	for j, k := range a.kinds {
		if k != b.kinds[j] || a.varIDs[j] != b.varIDs[j] || (k == kConst && a.args[j].Value != b.args[j].Value) {
			return false
		}
	}
	return true
}

// dissection is the pooled scratch of one Dissect or Label call: the
// distinct atoms of the folded body, compiled, plus the arrays the view
// matcher writes into.
type dissection struct {
	atoms  []compiledAtom
	kinds  []int8  // backing for atoms[i].kinds
	varIDs []int32 // backing for atoms[i].varIDs
	local  []int32 // per query variable id: its id within the atom being compiled
	stamp  []int32 // per query variable id: 1 + the atom local[] was set for

	labels    []AtomLabel // the label under construction, before Normalize
	sMap      []int32     // rewritableCompiled scratch, per view variable
	sMapConst []string
	exOwner   []int32 // rewritableCompiled scratch, per atom variable
}

var dissectPool = sync.Pool{New: func() any { return new(dissection) }}

// release drops the references into the query and pools the scratch.
func (d *dissection) release() {
	clear(d.atoms)
	clear(d.labels)
	clear(d.sMapConst)
	d.atoms, d.labels = d.atoms[:0], d.labels[:0]
	dissectPool.Put(d)
}

// grow returns s resliced to n, reallocating only when capacity is short;
// the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dissect compiles the distinct atoms of a folded query body (cq.Fold, or
// cq.Prepared.Fold: an alive-mask over the query's own atoms, no copy of
// the query) into d.atoms. Term kinds and join promotion come from the
// folded form's variable ids.
func (d *dissection) dissect(f *cq.Form) {
	body := f.Body()
	nArgs := 0
	for i, a := range body {
		if f.Alive(i) {
			nArgs += len(a.Args)
		}
	}
	d.kinds = grow(d.kinds, nArgs)
	d.varIDs = grow(d.varIDs, nArgs)
	d.local = grow(d.local, f.NumVars())
	d.stamp = grow(d.stamp, f.NumVars())
	clear(d.stamp)
	d.atoms = d.atoms[:0]

	off, ord := 0, 0
	for i, a := range body {
		if !f.Alive(i) {
			continue
		}
		n := len(a.Args)
		ca := compiledAtom{ord: ord, rel: a.Rel, args: a.Args,
			kinds: d.kinds[off : off+n : off+n], varIDs: d.varIDs[off : off+n : off+n]}
		ord++
		next := int32(0)
		for j, v := range f.Args(i) {
			if v < 0 {
				ca.kinds[j], ca.varIDs[j] = kConst, -1
				continue
			}
			if d.stamp[v] != int32(i+1) {
				d.stamp[v], d.local[v] = int32(i+1), next
				next++
			}
			ca.varIDs[j] = d.local[v]
			if f.Distinguished(v) {
				ca.kinds[j] = kDist
			} else {
				ca.kinds[j] = kExist
			}
		}
		ca.nvars = int(next)
		dup := false
		for k := range d.atoms {
			if dup = d.atoms[k].same(&ca); dup {
				break
			}
		}
		if !dup {
			d.atoms = append(d.atoms, ca)
			off += n
		}
	}
}
