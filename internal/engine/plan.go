package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clockcache"
	"repro/internal/cq"
)

// This file implements the plan layer: a conjunctive query is compiled once
// into a slot program — join order fixed by static selectivity, variables
// resolved to dense integer slots, index probes chosen per atom — and the
// compiled plan is memoized in a sharded, bounded cache keyed by the
// query's canonical form, mirroring the labeling cache: app-ecosystem
// traffic replays a small template space, so isomorphic queries (equal up
// to variable renaming and atom reordering) compile once and every repeat
// is a cache hit. Plans reference data only through constant strings
// resolved lazily against the interner, so one plan serves every snapshot
// of its database.

// Argument operations of a plan step, decided entirely at compile time: the
// executor never asks whether a variable is bound.
const (
	opConst uint8 = iota // compare against a resolved constant id
	opBind               // first occurrence: store the column value
	opCheck              // later occurrence: compare against the slot
)

type argOp struct {
	op uint8
	x  int32 // slot index (opBind/opCheck) or plan-constant index (opConst)
}

// planStep evaluates one body atom: probe (or scan) the table and extend
// the slot bindings.
type planStep struct {
	relID int32
	probe int32 // argument position to probe the index with, or -1 to scan
	args  []argOp
}

// planConst is one distinct body constant. The interner id is resolved
// lazily and memoized: interning is monotonic, so a resolution can never be
// invalidated, and a constant absent from the interner proves the query
// returns no rows on any current snapshot.
type planConst struct {
	s  string
	id atomic.Uint64 // resolved id + 1; 0 = not yet resolved
}

// headOp is one head position: a constant, held as the string it renders
// to (a head constant need not be interned), or a variable, read from its
// slot during execution and from column col of an answer's id rows
// afterwards.
type headOp struct {
	isConst bool
	val     string
	slot    int32
	col     int32 // index among the head's variable positions
}

// compiledPlan is an immutable compiled query; the only mutable fields are
// the memoized constant resolutions, which are monotonic and atomic. The
// same compilation carries two executable forms: the slot program (steps,
// interpreted tuple-at-a-time by planExec for early-exit existence checks)
// and the block program (vec, run by the vectorized executor in vexec.go
// for everything else).
type compiledPlan struct {
	steps     []planStep
	vec       []vecStep
	head      []headOp
	headSlots []int32 // slots of variable head positions, in head order
	consts    []*planConst
	nSlots    int
	boolean   bool
}

// compilePlan validates q against the database schema and compiles its
// canonical isomorph. Plans are name-independent: every query with the same
// canonical key executes the same program and produces the same answers.
func compilePlan(db *Database, q *cq.Query) (*compiledPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	for _, a := range q.Body {
		id, ok := db.relID[a.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: query %s references unknown relation %q", q.Name, a.Rel)
		}
		if len(a.Args) != db.cores[id].rel.Arity() {
			return nil, fmt.Errorf("engine: query %s: atom %s has %d arguments, relation has arity %d",
				q.Name, a.Rel, len(a.Args), db.cores[id].rel.Arity())
		}
	}
	cq0 := cq.Canonical(q)
	p := &compiledPlan{boolean: len(cq0.Head) == 0}

	// Static join order: greedily pick the atom with the most bound
	// arguments (constants, or variables bound by already-ordered atoms) —
	// the compile-time image of the seed evaluator's runtime heuristic,
	// which depended only on *which* variables were bound, never on their
	// values. Ties prefer more bound variables: an atom joined to the
	// already-ordered prefix through a shared variable extends the join
	// chain, whereas a constant-only atom starts an independent subtree and
	// risks a cross product (the seed only avoided those because generated
	// bodies happened to list chains in order; the canonical atom order the
	// plan compiles from carries no such luck). Remaining ties keep
	// canonical order, so isomorphic queries get identical plans.
	remaining := make([]int, len(cq0.Body))
	for i := range remaining {
		remaining[i] = i
	}
	bound := make(map[string]bool)
	var order []int
	for len(remaining) > 0 {
		bestAt, bestBound, bestVars := 0, -1, -1
		for ri, ai := range remaining {
			nb, nv := 0, 0
			for _, t := range cq0.Body[ai].Args {
				if t.IsConst() {
					nb++
				} else if bound[t.Value] {
					nb++
					nv++
				}
			}
			if nb > bestBound || (nb == bestBound && nv > bestVars) {
				bestAt, bestBound, bestVars = ri, nb, nv
			}
		}
		ai := remaining[bestAt]
		order = append(order, ai)
		remaining = append(remaining[:bestAt], remaining[bestAt+1:]...)
		for _, t := range cq0.Body[ai].Args {
			if t.IsVar() {
				bound[t.Value] = true
			}
		}
	}

	slots := make(map[string]int32)
	constIx := make(map[string]int32)
	slotOf := func(v string) (int32, bool) {
		s, ok := slots[v]
		if !ok {
			s = int32(len(slots))
			slots[v] = s
		}
		return s, ok
	}
	constOf := func(v string) int32 {
		c, ok := constIx[v]
		if !ok {
			c = int32(len(p.consts))
			constIx[v] = c
			// Cloned: a parsed constant is a substring of the query text,
			// and a cached plan must not keep a request's text alive.
			p.consts = append(p.consts, &planConst{s: strings.Clone(v)})
		}
		return c
	}
	for _, ai := range order {
		a := cq0.Body[ai]
		st := planStep{relID: int32(db.relID[a.Rel]), probe: -1, args: make([]argOp, len(a.Args))}
		boundBefore := len(slots)
		constProbe := int32(-1)
		for pos, t := range a.Args {
			switch {
			case t.IsConst():
				st.args[pos] = argOp{op: opConst, x: constOf(t.Value)}
			default:
				s, seen := slotOf(t.Value)
				if seen {
					st.args[pos] = argOp{op: opCheck, x: s}
				} else {
					st.args[pos] = argOp{op: opBind, x: s}
				}
			}
			// Probe preference: the first variable bound by an earlier step
			// (join variables are typically keys with small buckets), then
			// the first constant (query constants skew toward hub values
			// like 'me' or flag columns with few distinct values). A
			// same-step opCheck slot may be unwritten at probe time and
			// never qualifies.
			op := st.args[pos]
			if st.probe < 0 && op.op == opCheck && int(op.x) < boundBefore {
				st.probe = int32(pos)
			}
			if constProbe < 0 && op.op == opConst {
				constProbe = int32(pos)
			}
		}
		if st.probe < 0 {
			st.probe = constProbe
		}
		p.steps = append(p.steps, st)
	}
	p.nSlots = len(slots)

	p.head = make([]headOp, len(cq0.Head))
	for i, t := range cq0.Head {
		if t.IsConst() {
			p.head[i] = headOp{isConst: true, val: strings.Clone(t.Value)}
		} else {
			p.head[i] = headOp{slot: slots[t.Value], col: int32(len(p.headSlots))}
			p.headSlots = append(p.headSlots, p.head[i].slot)
		}
	}
	p.compileVec()
	return p, nil
}

// planExec is the per-evaluation state of one existence check: a
// tuple-at-a-time search that stops at the first full match, which beats
// block materialization when one row answers the question. Its scratch —
// slot bindings, constant ids — comes from the arena, so it shares the
// block executor's allocation-free discipline.
type planExec struct {
	snap *Snapshot
	plan *compiledPlan
	a    *execArena
	done bool // a full match was found — stop unwinding
}

// evalPlan runs a compiled plan against a snapshot with pooled scratch and
// returns the answer as interned ids. It never blocks: the snapshot is
// immutable and constant resolution is memoized after the first lookup.
func (db *Database) evalPlan(p *compiledPlan, snap *Snapshot) Answer {
	a := db.getArena()
	defer db.putArena(a)
	if !p.resolveConsts(db, a) {
		// A constant that has never been inserted anywhere proves no row of
		// any current snapshot can match.
		return Answer{}
	}
	if p.boolean {
		if p.runExists(snap, a) {
			return Answer{n: 1}
		}
		return Answer{}
	}
	n := p.runVec(db, snap, a)
	return p.answer(snap, a, n)
}

// evalPlanEach is evalPlan with the allocation-free visitor result path:
// answers are yielded in sorted order through a row buffer owned by the
// arena, valid only during the yield (callers copy what they retain). A
// satisfied boolean query yields one empty row.
func (db *Database) evalPlanEach(p *compiledPlan, snap *Snapshot, yield func(Tuple) bool) {
	a := db.getArena()
	defer db.putArena(a)
	if !p.resolveConsts(db, a) {
		return
	}
	if p.boolean {
		if p.runExists(snap, a) {
			yield(a.rowBuf[:0])
		}
		return
	}
	n := p.runVec(db, snap, a)
	p.visitVec(snap, a, n, yield)
}

// evalPlanBool reports satisfaction — for a boolean query, or row existence
// for any other — via the early-exit tuple executor, allocation-free.
func (db *Database) evalPlanBool(p *compiledPlan, snap *Snapshot) bool {
	a := db.getArena()
	defer db.putArena(a)
	if !p.resolveConsts(db, a) {
		return false
	}
	return p.runExists(snap, a)
}

// runExists reports whether any full match exists, stopping at the first.
func (p *compiledPlan) runExists(snap *Snapshot, a *execArena) bool {
	if cap(a.slots) < p.nSlots {
		a.slots = make([]uint32, p.nSlots)
	} else {
		a.slots = a.slots[:p.nSlots]
	}
	e := planExec{snap: snap, plan: p, a: a}
	e.step(0)
	return e.done
}

func (e *planExec) step(depth int) {
	if depth == len(e.plan.steps) {
		e.done = true
		return
	}
	st := &e.plan.steps[depth]
	t := e.snap.tables[st.relID]
	if t.n == 0 {
		return
	}
	if st.probe >= 0 {
		a := st.args[st.probe]
		var val uint32
		if a.op == opConst {
			val = e.a.cids[a.x]
		} else {
			val = e.a.slots[a.x]
		}
		ids, tail := t.probe(int(st.probe), val)
		for _, id := range ids {
			if e.match(st, t, int(id)) {
				e.step(depth + 1)
				if e.done {
					return
				}
			}
		}
		col := t.cols[st.probe]
		for r := tail; r < t.n; r++ {
			if col[r] == val && e.match(st, t, r) {
				e.step(depth + 1)
				if e.done {
					return
				}
			}
		}
		return
	}
	for r := 0; r < t.n; r++ {
		if e.match(st, t, r) {
			e.step(depth + 1)
			if e.done {
				return
			}
		}
	}
}

// match checks the row against the step's constants and bound slots and
// binds first-occurrence variables. Binds need no undo: a failed row is
// simply overwritten by the next candidate, and every opCheck references a
// slot written at an earlier step or earlier position (compile invariant).
func (e *planExec) match(st *planStep, t *tableSnap, row int) bool {
	for pos := range st.args {
		a := &st.args[pos]
		v := t.cols[pos][row]
		switch a.op {
		case opConst:
			if e.a.cids[a.x] != v {
				return false
			}
		case opCheck:
			if e.a.slots[a.x] != v {
				return false
			}
		default:
			e.a.slots[a.x] = v
		}
	}
	return true
}

// Plan cache: the shared sharded clock memo of internal/clockcache, keyed
// by canonical fingerprint exactly like the labeling cache in
// internal/label.

// DefaultPlanCacheCapacity bounds the plan cache of a new Database.
const DefaultPlanCacheCapacity = 4096

type planCache struct {
	c *clockcache.Cache[*compiledPlan]

	// Singleflight guard: concurrent misses on one canonical key compile
	// once. inflight maps the key to the flight every latecomer waits on.
	mu       sync.Mutex
	inflight map[string]*planFlight
}

// planFlight is one in-progress compilation; done closes when p/err are
// final.
type planFlight struct {
	done chan struct{}
	p    *compiledPlan
	err  error
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &planCache{
		c:        clockcache.New[*compiledPlan](capacity),
		inflight: make(map[string]*planFlight),
	}
}

// get returns the cached plan for a prepared query's canonical form,
// compiling and inserting it on a miss: a hit reads the key and the
// fingerprint the query was prepared with and nothing else, only a miss asks
// it for the parsed query.
func (pc *planCache) get(db *Database, pq *cq.Prepared) (*compiledPlan, error) {
	if p, ok := pc.c.Get(pq.Fingerprint, pq.Key); ok {
		return p, nil
	}
	return pc.miss(db, pq.Fingerprint, pq.Key, pq.Query())
}

// miss compiles and inserts q's plan after a counted miss. Concurrent misses
// on one key are collapsed into a single compilation: the first miss
// registers a flight and compiles outside the lock, latecomers wait on it.
// Compilation errors propagate to every waiter and are never cached.
func (pc *planCache) miss(db *Database, fp uint64, key string, q *cq.Query) (*compiledPlan, error) {
	pc.mu.Lock()
	if f, ok := pc.inflight[key]; ok {
		pc.mu.Unlock()
		<-f.done
		return f.p, f.err
	}
	// A flight that completed between the missed Get and the lock left the
	// plan in the cache; Peek avoids double-counting the lookup.
	if p, ok := pc.c.Peek(fp, key); ok {
		pc.mu.Unlock()
		return p, nil
	}
	f := &planFlight{done: make(chan struct{})}
	pc.inflight[key] = f
	pc.mu.Unlock()

	f.p, f.err = compilePlan(db, q)
	if f.err == nil {
		pc.c.Add(fp, key, f.p)
	}
	pc.mu.Lock()
	delete(pc.inflight, key)
	pc.mu.Unlock()
	close(f.done)
	return f.p, f.err
}

// PlanCacheStats is a point-in-time snapshot of plan-cache counters.
type PlanCacheStats = clockcache.Stats

// PlanStats aggregates the plan cache's per-shard counters.
func (db *Database) PlanStats() PlanCacheStats {
	return db.plans.Load().c.Stats()
}

// SetPlanCacheCapacity replaces the plan cache with an empty one bounded to
// roughly the given number of plans (non-positive restores the default).
// Counters restart from zero. Safe concurrently with evaluation: in-flight
// evaluations finish against the old cache.
func (db *Database) SetPlanCacheCapacity(capacity int) {
	db.plans.Store(newPlanCache(capacity))
}
