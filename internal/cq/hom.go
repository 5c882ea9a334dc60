package cq

// This file implements homomorphism search between conjunctive queries and
// the classical Chandra–Merlin containment and equivalence tests built on it.
//
// A homomorphism from query A to query B is a mapping h from the variables
// of A to the terms of B such that (i) h maps every body atom of A onto some
// body atom of B and (ii) h maps the head of A onto the head of B
// position-wise. Constants map to themselves. Then A's answers contain B's
// answers on every database (ans(B) ⊆ ans(A)).
//
// Containment testing is NP-complete in general; the backtracking search
// below is exponential in the number of body atoms of the source query,
// which is small (≤ ~15) for every workload in the paper. Containment and
// equivalence first try two cheap sufficient checks — syntactic equality and
// canonical-form equality (canon.go) — before falling back to the search.
//
// There is one search, homSearch, and it runs on interned forms (form.go):
// the substitution is a slice indexed by the source form's variable ids, a
// binding is the target form's variable id (or a constant), undoing is a
// pop from a slice of bound ids, and the target atoms a caller rules out —
// the fold's candidate and the atoms it already dropped — are a mask. The
// fold (minimize.go), FindHomomorphism, FindBodyHomomorphism, ContainedIn
// and Equivalent all call it; a Subst map is built only for a witness a
// caller asked for. The fold alone gives it a step budget.

import "math"

// unbound marks a source variable the search has not bound yet; a binding
// is otherwise the target's variable id, or -1 for a constant.
const unbound = int32(-2)

// homSearch holds the state of one backtracking search from the atoms of
// src into the atoms of dst (the same form, for the fold). It lives in the
// source form, so its slices are reused with the pool.
type homSearch struct {
	src, dst *Form
	todo     []bool   // per source atom: still to be mapped
	skip     []bool   // per target atom: not available as an image
	bindID   []int32  // per source var id: unbound, -1 (constant) or target var id
	bindVal  []string // per bound source var: the target term's Value
	trail    []int32  // source var ids bound so far, newest last
	solo     []bool   // per source var id: occurs in exactly one source atom
	steps    int      // budget left, in atoms looked at; spent once ≤ 0
}

// newSearch readies f's search state for a search into dst: every source
// atom to be mapped, every target atom available, nothing bound, no budget.
func (f *Form) newSearch(dst *Form) *homSearch {
	s := &f.search
	s.src, s.dst = f, dst
	s.todo = grow(s.todo, len(f.body))
	for i := range s.todo {
		s.todo[i] = true
	}
	s.skip = grow(s.skip, len(dst.body))
	clear(s.skip)
	s.bindID = grow(s.bindID, f.nVars)
	for i := range s.bindID {
		s.bindID[i] = unbound
	}
	s.bindVal = grow(s.bindVal, f.nVars)
	s.trail = s.trail[:0]
	s.solo = grow(s.solo, f.nVars)
	clear(s.solo)
	f.lastAtom = grow(f.lastAtom, f.nVars)
	clear(f.lastAtom)
	for i, ids := range f.argID {
		for _, v := range ids {
			if v >= 0 {
				s.solo[v] = f.lastAtom[v] == 0 || (s.solo[v] && f.lastAtom[v] == int32(i+1))
				f.lastAtom[v] = int32(i + 1)
			}
		}
	}
	s.steps = math.MaxInt
	return s
}

// bind maps source variable v to the target term (id, val) — id is the
// target's variable id or -1, val the term's Value — and reports whether
// that is consistent with what v is already bound to.
func (s *homSearch) bind(v, id int32, val string) bool {
	switch b := s.bindID[v]; {
	case b == unbound:
		s.bindID[v], s.bindVal[v] = id, val
		s.trail = append(s.trail, v)
		return true
	case b != id:
		return false
	default:
		return id >= 0 || s.bindVal[v] == val
	}
}

// undo unbinds everything bound since the trail had length base.
func (s *homSearch) undo(base int) {
	for _, v := range s.trail[base:] {
		s.bindID[v] = unbound
	}
	s.trail = s.trail[:base]
}

// search maps the `remaining` source atoms still marked todo onto available
// target atoms, extending the bindings. It reports false when no extension
// exists or when the budget ran out (s.steps ≤ 0 tells which); either way
// the bindings and todo marks are as it found them. The budget is charged
// one step per source atom ranked and one per image tried, so that it
// bounds the work and not merely the number of nodes.
func (s *homSearch) search(remaining int) bool {
	if remaining == 0 {
		return true
	}
	s.steps -= remaining
	// Most-constrained-first: among the atoms still to map, the one with
	// the most constant or already-bound arguments is matched next, which
	// prunes the search.
	best, bestScore := -1, -1
	for i, ids := range s.src.argID {
		if !s.todo[i] {
			continue
		}
		score := 0
		for _, v := range ids {
			if v < 0 || s.bindID[v] != unbound {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	atom, ids := &s.src.body[best], s.src.argID[best]
	s.todo[best] = false
	base := len(s.trail)
	// When every variable this atom would bind occurs in no other source
	// atom, which image it takes cannot matter to the rest: if the rest
	// fails after the first image that fits, it fails after all of them.
	independent := true
	for _, v := range ids {
		if v >= 0 && s.bindID[v] == unbound && !s.solo[v] {
			independent = false
			break
		}
	}
	for j := range s.dst.body {
		target := &s.dst.body[j]
		if s.skip[j] || len(target.Args) != len(ids) || target.Rel != atom.Rel {
			continue
		}
		if s.steps <= 0 {
			break
		}
		s.steps--
		tids := s.dst.argID[j]
		ok := true
		for p, v := range ids {
			want := &target.Args[p]
			if v < 0 {
				ok = tids[p] < 0 && atom.Args[p].Value == want.Value
			} else {
				ok = s.bind(v, tids[p], want.Value)
			}
			if !ok {
				break
			}
		}
		if ok && s.search(remaining-1) {
			return true
		}
		s.undo(base)
		if ok && independent {
			break
		}
	}
	s.todo[best] = true
	return false
}

// witness renders the bindings of a successful search as a substitution on
// top of seed's entries (which may be nil).
func (s *homSearch) witness(seed Subst) Subst {
	h := make(Subst, len(seed)+s.src.nVars)
	for k, t := range seed {
		h[k] = t
	}
	for name, v := range s.src.varID {
		switch id := s.bindID[v]; {
		case id >= 0:
			h[name] = V(s.bindVal[v])
		case id == -1:
			h[name] = C(s.bindVal[v])
		}
	}
	return h
}

// findHomomorphism is FindHomomorphism with the witness optional.
func findHomomorphism(from, to *Query, witness bool) (Subst, bool) {
	if len(from.Head) != len(to.Head) {
		return nil, false
	}
	src, dst := intern(from.Head, from.Body), intern(to.Head, to.Body)
	defer src.Release()
	defer dst.Release()
	s := src.newSearch(dst)
	// Seed the mapping with the head constraints.
	for i, v := range src.headID {
		ok := false
		if v < 0 {
			ok = dst.headID[i] < 0 && from.Head[i].Value == to.Head[i].Value
		} else {
			ok = s.bind(v, dst.headID[i], to.Head[i].Value)
		}
		if !ok {
			return nil, false
		}
	}
	if !s.search(len(from.Body)) {
		return nil, false
	}
	if !witness {
		return nil, true
	}
	return s.witness(nil), true
}

// FindHomomorphism searches for a homomorphism from `from` to `to` as
// defined above (head mapped onto head). It returns the witness
// substitution, or nil if none exists. Both queries must have the same head
// arity for a homomorphism to exist.
func FindHomomorphism(from, to *Query) Subst {
	h, _ := findHomomorphism(from, to, true)
	return h
}

// FindBodyHomomorphism searches for a homomorphism from the body atoms of
// `from` into the body atoms of `to` that extends the given partial
// substitution (which may be nil). It returns the witness, or nil.
func FindBodyHomomorphism(from, to []Atom, seed Subst) Subst {
	src, dst := intern(nil, from), intern(nil, to)
	defer src.Release()
	defer dst.Release()
	s := src.newSearch(dst)
	for name, t := range seed {
		v, ok := src.varID[name]
		if !ok {
			continue // not a variable of `from`: carried into the witness as is
		}
		id := int32(-1)
		if t.IsVar() {
			// A target variable `to` never mentions still gets an id of its
			// own, distinct from every id the target atoms hold.
			id = dst.internVar(t.Value)
		}
		s.bind(v, id, t.Value)
	}
	if !s.search(len(from)) {
		return nil
	}
	return s.witness(seed)
}

// ContainedIn reports whether q1 ⊆ q2, i.e. the answers of q1 are a subset
// of the answers of q2 on every database. By the Chandra–Merlin theorem this
// holds precisely when there is a homomorphism from q2 to q1. Syntactically
// or canonically equal queries are equivalent, hence contained, without a
// search.
func ContainedIn(q1, q2 *Query) bool {
	if q1 == q2 || q1.Equal(q2) || CanonicallyEqual(q1, q2) {
		return true
	}
	_, ok := findHomomorphism(q2, q1, false)
	return ok
}

// Equivalent reports whether the two queries return the same answers on
// every database (containment in both directions). Canonical equality
// (canon.go) decides the common isomorphic case without the exponential
// search; the two homomorphism searches run only for queries that are
// equivalent-but-non-isomorphic or inequivalent.
func Equivalent(q1, q2 *Query) bool {
	if q1 == q2 || q1.Equal(q2) || CanonicallyEqual(q1, q2) {
		return true
	}
	_, ok := findHomomorphism(q2, q1, false)
	if ok {
		_, ok = findHomomorphism(q1, q2, false)
	}
	return ok
}
