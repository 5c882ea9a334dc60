package cq

import "sync"

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
	varID  map[string]int32
	headID []int32   // per head position: variable id, or -1 for a constant
	argID  [][]int32 // per atom, per position: variable id, or -1
	flat   []int32   // backing for argID
	occCnt []int32   // per var id: occurrences across the body

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
	if f.varID == nil {
		f.varID = make(map[string]int32, 16)
	} else {
		clear(f.varID)
	}
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
	f.nVars = len(f.varID)
	f.occCnt = grow(f.occCnt, f.nVars)
	clear(f.occCnt)
	for _, ids := range f.argID {
		for _, vid := range ids {
			if vid >= 0 {
				f.occCnt[vid]++
			}
		}
	}
	return f
}

// internVar returns the id of a variable name, assigning the next dense id
// on first sight.
func (f *Form) internVar(name string) int32 {
	i, ok := f.varID[name]
	if !ok {
		i = int32(len(f.varID))
		f.varID[name] = i
	}
	return i
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
