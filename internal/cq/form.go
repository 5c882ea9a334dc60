package cq

import (
	"hash/maphash"
	"sync"
)

// Form is the interned form of one query: every variable name resolved to
// a dense id once, so that every later pass — canonicalization (canon.go),
// folding (minimize.go), homomorphism search (hom.go) and, outside this
// package, dissection and labeling — runs on integer arrays instead of
// string maps and cloned queries. The struct also carries the scratch of
// those passes and is pooled, so a steady-state pass allocates nothing but
// its result (a key string, a label).
//
// A Form is obtained from intern (or Fold, for other packages) and must be
// handed back with Release; it aliases the query's head and body and is
// invalid once the query is mutated.
type Form struct {
	head []Term
	body []Atom

	nVars  int
	names  []nameSlot // variable name → id, open-addressed (internVar)
	headID []int32    // per head position: variable id, or -1 for a constant
	argID  [][]int32  // per atom, per position: variable id, or -1
	flat   []int32    // backing for argID
	occCnt []int32    // per var id: occurrences across the body

	// Canonicalization scratch (canon.go).
	color    []uint64 // per var id: current refinement color
	atomHash []uint64 // per atom: hash under the current coloring
	firstPos []int32  // per var id: packed (atom<<16 | pos) of first sight
	order    []int    // atom indexes in canonical order
	occFlat  []uint64 // recolor scratch: occurrence hashes bucketed per var
	occOffs  []int32
	occFill  []int32
	ren      []int32 // render scratch: var id → canonical number

	// Folding state (minimize.go): which body atoms survive, and what the
	// labeler needs to know about the variables of the survivors.
	alive     []bool           // per atom: still part of the folded body
	nAlive    int              // number of alive atoms
	relID     map[string]int32 // relation name → dense id
	relOf     []int32          // per atom: its relation's id
	relCnt    []int32          // per relation id: alive atoms over it
	liveOcc   []int32          // per var id: occurrences across the alive atoms
	isHead    []bool           // per var id: occurs in the head
	atomCnt   []int32          // per var id: alive atoms it occurs in
	lastAtom  []int32          // per var id, scratch: 1 + the last atom seen holding it
	exhausted bool             // the fold ran out of its step budget (see foldStepBudget)

	search homSearch // homomorphism-search scratch, this form being the source
}

var formPool = sync.Pool{New: func() any { return new(Form) }}

// grow returns s resliced to n, reallocating only when capacity is short;
// the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// intern resolves the variables of a head and a body to dense ids, in
// first-occurrence order (head first).
func intern(head []Term, body []Atom) *Form {
	f := formPool.Get().(*Form)
	f.head, f.body = head, body
	nArgs := 0
	for _, a := range body {
		nArgs += len(a.Args)
	}
	f.resetNames(len(head) + nArgs)
	f.headID = grow(f.headID, len(head))
	for i, t := range head {
		if t.IsVar() {
			f.headID[i] = f.internVar(t.Value)
		} else {
			f.headID[i] = -1
		}
	}
	f.argID = grow(f.argID, len(body))
	f.flat = grow(f.flat, nArgs)
	backing := f.flat
	for ai, a := range body {
		ids := backing[:len(a.Args):len(a.Args)]
		backing = backing[len(a.Args):]
		for j, t := range a.Args {
			if t.IsVar() {
				ids[j] = f.internVar(t.Value)
			} else {
				ids[j] = -1
			}
		}
		f.argID[ai] = ids
	}
	f.countOcc()
	return f
}

// countOcc fills occCnt from argID.
func (f *Form) countOcc() {
	f.occCnt = grow(f.occCnt, f.nVars)
	clear(f.occCnt)
	for _, ids := range f.argID {
		for _, vid := range ids {
			if vid >= 0 {
				f.occCnt[vid]++
			}
		}
	}
}

// nameSlot is one slot of a form's variable-name table.
type nameSlot struct {
	name string
	id   int32 // the variable's id + 1; 0 marks an empty slot
}

// nameSeed seeds the variable-name hash: query texts are untrusted, and
// under a fixed hash a text could pick names that all probe one run of
// slots.
var nameSeed = maphash.MakeSeed()

// resetNames empties the name table and sizes it for up to n names at
// most half full, so that clearing it costs what the query holds.
func (f *Form) resetNames(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	f.names = grow(f.names, size)
	clear(f.names)
	f.nVars = 0
}

// internVar returns the id of a variable name, assigning the next dense id
// on first sight.
func (f *Form) internVar(name string) int32 {
	if 2*(f.nVars+1) > len(f.names) {
		old := f.names
		f.names = make([]nameSlot, 2*len(old))
		for _, s := range old {
			if s.id != 0 {
				*f.slot(s.name) = s
			}
		}
	}
	s := f.slot(name)
	if s.id == 0 {
		f.nVars++
		s.name, s.id = name, int32(f.nVars)
	}
	return s.id - 1
}

// slot returns name's slot in the table, or the empty slot where it goes.
func (f *Form) slot(name string) *nameSlot {
	mask := uint64(len(f.names) - 1)
	for i := maphash.String(nameSeed, name) & mask; ; i = (i + 1) & mask {
		if s := &f.names[i]; s.id == 0 || s.name == name {
			return s
		}
	}
}

// safe reports what Query.Validate checks, from ids: a nonempty body in
// which every head variable occurs.
func (f *Form) safe() bool {
	if len(f.body) == 0 {
		return false
	}
	for _, vid := range f.headID {
		if vid >= 0 && f.occCnt[vid] == 0 {
			return false
		}
	}
	return true
}

// Release returns the form's buffers to the pool.
func (f *Form) Release() {
	f.head, f.body = nil, nil
	f.search.src, f.search.dst = nil, nil
	formPool.Put(f)
}

// PreparedForm is the part of a query's interned form that a prepared query
// (Prepared) keeps once its key is rendered: the variable ids, the canonical
// atom order and the canonical renumbering, without the pooled scratch of
// the passes. It is read-only, so one may be shared by any number of
// concurrent submissions; the label-cache miss folds it (Prepared.Fold) and
// the plan compiler reads the query's canonical isomorph from it
// (CanonicalAtom, HeadVar), neither interning the query again.
type PreparedForm struct {
	q      *Query
	unsafe bool // the query fails Query.Validate; nothing below is set

	nVars int
	// One backing array, in this order:
	head  []int32 // per head position: variable id, or -1 for a constant
	args  []int32 // per body position, atom after atom in the query's own order: variable id, or -1
	off   []int32 // per atom: where its positions start in args, then len(args)
	order []int32 // per canonical position: the index of the atom there in the query's body
	ren   []int32 // per variable id: its canonical number, the n of the key's vn
}

// freeze copies f's ids, canonical order and renumbering — refine and
// render must have run — into pf, the prepared form of q, in one
// allocation.
func (f *Form) freeze(q *Query, pf *PreparedForm) {
	nh, na, nb := len(f.headID), len(f.flat), len(f.body)
	buf := make([]int32, nh+na+2*nb+1+f.nVars)
	cut := func(n int) []int32 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	*pf = PreparedForm{q: q, nVars: f.nVars,
		head: cut(nh), args: cut(na), off: cut(nb + 1), order: cut(nb), ren: cut(f.nVars)}
	copy(pf.head, f.headID)
	copy(pf.args, f.flat) // argID's backing, atom after atom
	at := int32(0)
	for ai, ids := range f.argID {
		pf.off[ai] = at
		at += int32(len(ids))
	}
	pf.off[nb] = at
	for i, ai := range f.order {
		pf.order[i] = int32(ai)
	}
	copy(pf.ren, f.ren)
}

// load readies a pooled Form from the prepared form, as intern would have
// from the query — the same ids, so every pass over it runs as it would
// over a fresh intern — without hashing a variable name. The loaded form
// has no name table: it serves the fold, not a homomorphism witness.
func (pf *PreparedForm) load() *Form {
	f := formPool.Get().(*Form)
	body := pf.q.Body
	f.head, f.body, f.nVars = pf.q.Head, body, pf.nVars
	f.headID = append(f.headID[:0], pf.head...)
	f.flat = append(f.flat[:0], pf.args...)
	f.argID = grow(f.argID, len(body))
	for ai := range body {
		f.argID[ai] = f.flat[pf.off[ai]:pf.off[ai+1]:pf.off[ai+1]]
	}
	f.countOcc()
	return f
}

// Query returns the prepared query. Callers must not modify it.
func (pf *PreparedForm) Query() *Query { return pf.q }

// NumVars returns the number of distinct variables of the query; their
// canonical numbers are 0 .. NumVars()-1.
func (pf *PreparedForm) NumVars() int { return pf.nVars }

// CanonicalAtom returns the body atom at canonical position i — the i-th
// atom of the key — and writes into vars, per argument, its variable's
// canonical number, or -1 for a constant. vars must hold the atom's arity.
func (pf *PreparedForm) CanonicalAtom(i int, vars []int32) Atom {
	ai := pf.order[i]
	for j, vid := range pf.args[pf.off[ai]:pf.off[ai+1]] {
		if vid >= 0 {
			vid = pf.ren[vid]
		}
		vars[j] = vid
	}
	return pf.q.Body[ai]
}

// HeadVar returns the canonical number of head position j's variable, or
// -1 for a constant.
func (pf *PreparedForm) HeadVar(j int) int32 {
	if vid := pf.head[j]; vid >= 0 {
		return pf.ren[vid]
	}
	return -1
}
