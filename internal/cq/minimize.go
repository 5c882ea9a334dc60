package cq

// This file implements query minimization ("folding" in the paper's
// terminology, after Chandra and Merlin): computing an equivalent query with
// the minimum number of body atoms. The minimized query is the core of the
// original and is unique up to variable renaming.
//
// The fold runs on the query's interned form (form.go) and its result is a
// mask over the original body atoms: nothing is cloned per candidate, and a
// *Query is materialized only for Minimize's callers, and only when an atom
// was actually dropped. The labeler (internal/label) reads the mask.

// foldStepBudget bounds the homomorphism searches of one fold, in atoms
// looked at (homSearch.search says what is charged). The search is
// exponential and query texts are untrusted, so a fold that runs out keeps
// every atom it has not yet proved redundant: the result is still
// equivalent to the query, merely not minimal, and a label computed from it
// can only be higher. The largest fold among 20,000 fifteen-atom templates
// of internal/workload spends under 1 % of it (TestFoldBudgetHeadroom); a
// fold that spends all of it has run for a few milliseconds.
const foldStepBudget = 1 << 18

// Fold interns q and folds it: the returned form says which body atoms
// survive (Alive) and, for the variables of the survivors, which are
// distinguished for dissection (Distinguished). The caller must Release
// the form. An unsafe query (Query.Validate) is refused with that error.
func Fold(q *Query) (*Form, error) {
	f := intern(q.Head, q.Body)
	if !f.safe() {
		f.Release()
		return nil, q.Validate()
	}
	f.fold()
	f.countAtoms()
	return f, nil
}

// fold computes the alive mask. It attempts to drop each body atom in
// turn: atom a can be dropped when there is a homomorphism from the current
// body into the current body minus a that fixes the head (the converse is
// witnessed by the identity, since the smaller body is a subset).
//
// One pass suffices. If a is not droppable from body B, it is not droppable
// from any equivalent B' ⊂ B either: a homomorphism B' → B'∖a composed
// with the one that justified shrinking B to B' would be a homomorphism
// B → B∖a. So an atom that survived its attempt survives every later one.
func (f *Form) fold() {
	n := len(f.body)
	f.alive = grow(f.alive, n)
	for i := range f.alive {
		f.alive[i] = true
	}
	f.nAlive, f.exhausted = n, false
	f.isHead = grow(f.isHead, f.nVars)
	clear(f.isHead)
	for _, v := range f.headID {
		if v >= 0 {
			f.isHead[v] = true
		}
	}

	// An atom is droppable only if a homomorphism maps it onto another
	// atom, which must be over the same relation: a body in which no
	// relation occurs twice is already minimal.
	if f.relID == nil {
		f.relID = make(map[string]int32, 16)
	} else {
		clear(f.relID)
	}
	f.relOf, f.relCnt = grow(f.relOf, n), f.relCnt[:0]
	dup := false
	for i, a := range f.body {
		id, ok := f.relID[a.Rel]
		if !ok {
			id = int32(len(f.relCnt))
			f.relID[a.Rel] = id
			f.relCnt = append(f.relCnt, 0)
		}
		f.relOf[i] = id
		f.relCnt[id]++
		dup = dup || ok
	}
	if !dup {
		return
	}

	f.liveOcc = append(f.liveOcc[:0], f.occCnt...)
	s := f.newSearch(f)
	s.steps = foldStepBudget
	for v, head := range f.isHead {
		if head {
			s.bindID[v] = int32(v) // the head is fixed; never on the trail
		}
	}
	for i := 0; i < n && f.nAlive > 1; i++ {
		if f.relCnt[f.relOf[i]] < 2 {
			continue
		}
		// Dropping the atom must not orphan a head variable.
		ids, orphan := f.argID[i], false
		for _, v := range ids {
			if v >= 0 {
				f.liveOcc[v]--
				orphan = orphan || (f.liveOcc[v] == 0 && f.isHead[v])
			}
		}
		if !orphan {
			copy(s.todo, f.alive)
			s.skip[i] = true
			if s.search(f.nAlive) {
				s.undo(0)
				f.alive[i] = false
				f.nAlive--
				f.relCnt[f.relOf[i]]--
				continue
			}
			s.skip[i] = false
		}
		for _, v := range ids {
			if v >= 0 {
				f.liveOcc[v]++
			}
		}
		if s.steps <= 0 {
			f.exhausted = true
			return
		}
	}
}

// countAtoms fills atomCnt: per variable, the number of alive atoms it
// occurs in (a variable repeated within one atom counts once).
func (f *Form) countAtoms() {
	f.atomCnt = grow(f.atomCnt, f.nVars)
	clear(f.atomCnt)
	f.lastAtom = grow(f.lastAtom, f.nVars)
	clear(f.lastAtom)
	for i, ids := range f.argID {
		if !f.alive[i] {
			continue
		}
		for _, v := range ids {
			if v >= 0 && f.lastAtom[v] != int32(i+1) {
				f.lastAtom[v] = int32(i + 1)
				f.atomCnt[v]++
			}
		}
	}
}

// Exhausted reports that the fold stopped at its step budget: the alive
// atoms are equivalent to the query but possibly not minimal.
func (f *Form) Exhausted() bool { return f.exhausted }

// Alive reports whether body atom i survived the fold.
func (f *Form) Alive(i int) bool { return f.alive[i] }

// NumVars returns the number of distinct variables of the query; their ids
// are 0 .. NumVars()-1.
func (f *Form) NumVars() int { return f.nVars }

// Body returns the body the form is of, in the query's own atom order: atom
// i is the one Alive(i) and Args(i) speak of. The slice is the query's.
func (f *Form) Body() []Atom { return f.body }

// Args returns body atom i's arguments as variable ids, -1 standing for a
// constant. The slice is the form's own.
func (f *Form) Args(i int) []int32 { return f.argID[i] }

// Distinguished reports whether variable v must be revealed by a
// single-atom view of the folded body: it is a head variable, or it joins
// two surviving atoms (Section 5.2).
func (f *Form) Distinguished(v int32) bool { return f.isHead[v] || f.atomCnt[v] >= 2 }

// Minimize returns an equivalent query with a minimal body (the core of q).
// The result is a new query; q is not modified. The paper's Dissect
// algorithm (Section 5.2) uses this as its first step.
func Minimize(q *Query) *Query {
	if m := MinimizeShared(q); m != q {
		return m
	}
	return q.Clone()
}

// MinimizeShared is Minimize without the defensive copy: when the fold
// drops nothing it returns q itself. Hot paths that do not mutate the
// result use this to avoid cloning; everyone else should call Minimize.
func MinimizeShared(q *Query) *Query {
	f := intern(q.Head, q.Body)
	defer f.Release()
	if !f.safe() {
		return q // no semantics to preserve
	}
	f.fold()
	if f.nAlive == len(q.Body) {
		return q
	}
	m := &Query{
		Name: q.Name,
		Head: append([]Term(nil), q.Head...),
		Body: make([]Atom, 0, f.nAlive),
	}
	for i, a := range q.Body {
		if f.alive[i] {
			m.Body = append(m.Body, a.Clone())
		}
	}
	return m
}

// IsMinimal reports whether no body atom of q can be dropped while
// preserving equivalence.
func IsMinimal(q *Query) bool {
	return MinimizeShared(q) == q
}
