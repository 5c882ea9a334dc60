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
// into a block program — join order fixed by static selectivity, variables
// resolved to dense integer slots, each step's probe column chosen — and the
// compiled plan is memoized in a sharded, bounded cache keyed by the
// query's canonical form, mirroring the labeling cache: app-ecosystem
// traffic replays a small template space, so isomorphic queries (equal up
// to variable renaming and atom reordering) compile once and every repeat
// is a cache hit. Plans reference data only through constant strings
// resolved lazily against the interner, so one plan serves every snapshot
// of its database.

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
// the memoized constant resolutions, which are monotonic and atomic. Its
// steps are the block program the executor in vexec.go runs, for every
// query, boolean ones included.
type compiledPlan struct {
	steps     []vecStep
	head      []headOp
	headSlots []int32 // slots of variable head positions, in head order
	consts    []*planConst
	nSlots    int
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
	p := &compiledPlan{}

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

	// Slots are assigned in first-occurrence order across the ordered steps,
	// so a slot below the count bound before a step is a cross-step
	// dependency and one at or above it was bound earlier in the same step.
	slots := make(map[string]int32)
	constIx := make(map[string]int32)
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
	before := make([]int32, len(order)+1) // slots bound before each step
	for i, ai := range order {
		a := cq0.Body[ai]
		st := vecStep{relID: int32(db.relID[a.Rel]), probeCol: -1}
		start := int32(len(slots))
		before[i] = start
		for pos, t := range a.Args {
			col := int32(pos)
			if t.IsConst() {
				st.consts = append(st.consts, vecColConst{col: col, cid: constOf(t.Value)})
				continue
			}
			s, seen := slots[t.Value]
			switch {
			case !seen:
				s = int32(len(slots))
				slots[t.Value] = s
				st.binds = append(st.binds, vecColSlot{col: col, slot: s})
			case s < start:
				// Probe with the first variable an earlier step bound: join
				// variables are typically keys with small buckets.
				if st.probeCol < 0 {
					st.probeCol, st.probeSlot = col, s
				}
				st.cross = append(st.cross, vecColSlot{col: col, slot: s})
			default:
				for _, b := range st.binds {
					if b.slot == s {
						st.selfPairs = append(st.selfPairs, vecColPair{a: b.col, b: col})
					}
				}
			}
		}
		p.steps = append(p.steps, st)
	}
	p.nSlots = len(slots)
	before[len(order)] = int32(p.nSlots)

	p.head = make([]headOp, len(cq0.Head))
	for i, t := range cq0.Head {
		if t.IsConst() {
			p.head[i] = headOp{isConst: true, val: strings.Clone(t.Value)}
		} else {
			p.head[i] = headOp{slot: slots[t.Value], col: int32(len(p.headSlots))}
			p.headSlots = append(p.headSlots, p.head[i].slot)
		}
	}
	p.pruneDead(before)
	return p, nil
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
	n := p.runVec(db, snap, a)
	return p.answer(snap, a, n)
}

// Plan cache: the shared sharded clock memo of internal/clockcache, keyed
// by canonical fingerprint exactly like the labeling cache in
// internal/label.

// DefaultPlanCacheCapacity bounds the plan cache of every Database.
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
	return db.plans.c.Stats()
}
