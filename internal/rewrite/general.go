package rewrite

import (
	"fmt"

	"repro/internal/cq"
)

// Options bounds the general rewriting search.
type Options struct {
	// MaxAtoms caps the number of view atoms in a candidate rewriting.
	// Zero means "number of atoms in the minimized query", which is
	// sufficient for completeness by the Levy–Mendelzon–Sagiv bound.
	MaxAtoms int
	// MaxCandidates caps the number of candidate view atoms considered.
	// Zero means unlimited. When the cap is hit the search is still sound
	// (any rewriting found is correct) but may miss rewritings.
	MaxCandidates int
}

// Equivalent searches for an equivalent rewriting of query q in terms of the
// given views. Views must have distinct names; their names serve as relation
// symbols in the returned rewriting. It returns (nil, false, nil) when no
// rewriting exists within the search bounds.
//
// The search is complete (up to Options bounds): every equivalent rewriting
// can be normalized so that each view atom's arguments are the images of a
// homomorphism from the view's body into the (minimized) query's body; the
// candidate set enumerates exactly those atoms, and subsets up to the LMSS
// bound are checked for expansion equivalence.
func Equivalent(q *cq.Query, views []*cq.Query, opts Options) (*Rewriting, bool, error) {
	defs := make(map[string]*cq.Query, len(views))
	for _, v := range views {
		if _, dup := defs[v.Name]; dup {
			return nil, false, fmt.Errorf("rewrite: duplicate view name %q", v.Name)
		}
		defs[v.Name] = v
	}
	min := cq.Minimize(q)
	maxAtoms := opts.MaxAtoms
	if maxAtoms <= 0 {
		maxAtoms = len(min.Body)
	}

	// Candidate view atoms: for every homomorphism from a view body into
	// the minimized query body, the atom V(h(head(V))).
	type candidate struct {
		atom cq.Atom
	}
	var cands []candidate
	seen := make(map[string]struct{})
	for _, v := range views {
		vr := v.RenameApart(min)
		// Recompute the head terms under the renaming.
		for _, h := range cq.AllBodyHomomorphisms(vr.Body, min.Body, nil) {
			args := make([]cq.Term, len(vr.Head))
			for i, ht := range vr.Head {
				args[i] = h.Apply(ht)
			}
			a := cq.Atom{Rel: v.Name, Args: args}
			key := a.String()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			cands = append(cands, candidate{atom: a})
			if opts.MaxCandidates > 0 && len(cands) >= opts.MaxCandidates {
				break
			}
		}
		if opts.MaxCandidates > 0 && len(cands) >= opts.MaxCandidates {
			break
		}
	}
	if len(cands) == 0 {
		return nil, false, nil
	}

	// Try subsets of candidate atoms in increasing size; smaller rewritings
	// are preferred as disclosure witnesses.
	atoms := make([]cq.Atom, len(cands))
	for i, c := range cands {
		atoms[i] = c.atom
	}
	var found *Rewriting
	check := func(chosen []cq.Atom) bool {
		rw := &Rewriting{Head: append([]cq.Term(nil), min.Head...), Body: chosen}
		exp, err := Expand(rw, defs)
		if err != nil {
			return false
		}
		if exp.Validate() != nil {
			return false // unsafe: a head variable was projected away
		}
		if cq.Equivalent(exp, min) {
			found = &Rewriting{
				Head: append([]cq.Term(nil), min.Head...),
				Body: append([]cq.Atom(nil), chosen...),
			}
			return true
		}
		return false
	}
	// Breadth-first over sizes: try all size-1 subsets, then size-2, etc.,
	// so the smallest witness is found first.
	for size := 1; size <= maxAtoms && size <= len(atoms); size++ {
		var bySize func(start int, chosen []cq.Atom) bool
		bySize = func(start int, chosen []cq.Atom) bool {
			if len(chosen) == size {
				return check(chosen)
			}
			for i := start; i < len(atoms); i++ {
				if bySize(i+1, append(chosen, atoms[i])) {
					return true
				}
			}
			return false
		}
		if bySize(0, nil) {
			return found, true, nil
		}
	}
	return nil, false, nil
}
