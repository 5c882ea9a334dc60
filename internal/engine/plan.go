package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clockcache"
	"repro/internal/cq"
	"repro/internal/obs"
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

// headOp is one head position: a constant, held as the bytes it renders to
// and whether they are plain (a head constant need not be interned), or a
// variable, read from its slot during execution and from column col of an
// answer's id rows afterwards.
type headOp struct {
	isConst bool
	plain   bool
	raw     []byte
	slot    int32
	col     int32 // index among the head's variable positions
}

// compiledPlan is an immutable compiled query; the only mutable fields are
// the memoized constant resolutions, which are monotonic and atomic, and
// the memo of its last answer. Its steps are the block program the
// executor in vexec.go runs, for every query, boolean ones included.
type compiledPlan struct {
	steps     []vecStep
	head      []headOp
	headSlots []int32 // slots of variable head positions, in head order
	consts    []*planConst
	nSlots    int
	rels      []int32 // the distinct relations the steps read

	// memo holds the plan's last execution, which evalPlan hands out again
	// while the tables in rels are unchanged.
	memo *memoSlot
}

// answerMemo records one execution of a plan: the snapshot's stamp over the
// plan's tables (compiledPlan.stamp) and the rows it answered (nil for
// none). A record is immutable; evalPlan replaces it whole.
type answerMemo struct {
	stamp uint64
	rows  *answerBlock
}

// bytes is what the record charges against its database's memo budget: its
// ids. The shared unit row holds none.
func (m *answerMemo) bytes() int64 {
	if m == nil || m.rows == nil {
		return 0
	}
	return int64(len(m.rows.ids)) * 4
}

// memoBudget bounds the id bytes the last answers of one database's plans
// may hold together. On scan_load, 400 templates of ≈ 640 rows hold about
// 5–6.5 MB.
const memoBudget = 16 << 20

// memoAccount is a database's memo budget: the id bytes its plans' records
// hold, never above budget. It is its own object, not a field of Database,
// because every plan's cleanup reaches it, and a cleanup that reached the
// Database would reach its plan cache and so keep every plan alive.
type memoAccount struct {
	bytes  atomic.Int64
	budget int64 // memoBudget; a test may shrink it before the first evaluation
}

// charge reserves n bytes, or reports false when they would take the
// account past its budget.
func (acc *memoAccount) charge(n int64) bool {
	for {
		cur := acc.bytes.Load()
		if cur+n > acc.budget {
			return false
		}
		if acc.bytes.CompareAndSwap(cur, cur+n) {
			metricMemoBytes.Add(float64(n))
			return true
		}
	}
}

// release returns the bytes of a record no slot holds any more.
func (acc *memoAccount) release(m *answerMemo) {
	if n := m.bytes(); n > 0 {
		acc.bytes.Add(-n)
		metricMemoBytes.Add(-float64(n))
	}
}

// memoSlot is where a plan keeps its last answer. A record's bytes are
// charged before it enters the slot and released after it leaves, so the
// account never counts less than the slots hold; the plan's cleanup empties
// the slot once the plan is collected (compilePlan).
type memoSlot struct {
	rec atomic.Pointer[answerMemo]
	acc *memoAccount
}

// keep makes m the slot's record in place of the one there. The old record
// is released first, so a replacement is charged its own size only; a
// record the budget cannot take leaves the slot empty, and the plan's next
// evaluation executes.
func (s *memoSlot) keep(m *answerMemo) {
	s.acc.release(s.rec.Swap(nil))
	if s.acc.charge(m.bytes()) {
		s.acc.release(s.rec.Swap(m))
	}
}

// drop empties the slot of a plan that has been collected.
func (s *memoSlot) drop() { s.acc.release(s.rec.Swap(nil)) }

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
	p := &compiledPlan{memo: &memoSlot{acc: db.memo}}

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
		if !slices.Contains(p.rels, st.relID) {
			p.rels = append(p.rels, st.relID)
		}
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
			p.head[i] = headOp{isConst: true, plain: isPlain(t.Value), raw: []byte(t.Value)}
		} else {
			p.head[i] = headOp{slot: slots[t.Value], col: int32(len(p.headSlots))}
			p.headSlots = append(p.headSlots, p.head[i].slot)
		}
	}
	p.pruneDead(before)
	// A plan the cache evicted, and no evaluation holds any more, gives its
	// last answer's bytes back when the collector takes it.
	runtime.AddCleanup(p, (*memoSlot).drop, p.memo)
	return p, nil
}

// evalPlan answers a compiled plan at a snapshot as interned ids. While
// every table the plan reads is the one its last execution read, it hands
// that execution's rows out again — no arena, no join, no allocation;
// otherwise it executes with pooled scratch and records the new rows, if
// the database's memo budget takes them. It never blocks: the snapshot is
// immutable, constant resolution is memoized after the first lookup, and
// the memo is one atomic record.
//
// A reused answer is the executed one by construction: equal stamps mean
// the plan's tables hold the same rows, and the answer is a function of
// those rows alone (a plan constant's id never changes once interned, and
// the order is the strings'). An evaluation pinned to an older snapshot
// sees another stamp and executes; its record may replace a newer one,
// which costs the next evaluation a miss and nothing else.
func (db *Database) evalPlan(p *compiledPlan, snap *Snapshot) Answer {
	stamp := p.stamp(snap)
	if m := p.memo.rec.Load(); m != nil && m.stamp == stamp {
		metricAnswers[answerReused].Inc()
		return p.answer(snap, m.rows)
	}
	metricAnswers[answerExecuted].Inc()
	a := db.getArena()
	defer db.putArena(a)
	n := 0
	// A constant that has never been inserted anywhere proves no row of
	// any current snapshot can match.
	if p.resolveConsts(db, a) {
		n = p.runVec(db, snap, a)
	}
	blk := p.rows(a, n)
	// p is live until p.answer, after keep: its cleanup cannot empty the
	// slot before this record enters it and leave the record's bytes
	// charged to no one.
	p.memo.keep(&answerMemo{stamp: stamp, rows: blk})
	return p.answer(snap, blk)
}

// stamp identifies the plan's tables at snap: the largest publication
// stamp among them. Publication numbers only grow, so a table that any
// publication between two snapshots changed carries, in the later one, a
// stamp above every stamp of the earlier one; the largest stamp is
// therefore equal at two snapshots exactly when every table the plan reads
// is.
func (p *compiledPlan) stamp(snap *Snapshot) uint64 {
	var s uint64
	for _, r := range p.rels {
		s = max(s, snap.tables[r].stamp)
	}
	return s
}

// answer is the Answer of rows at snap.
func (p *compiledPlan) answer(snap *Snapshot, rows *answerBlock) Answer {
	if rows == nil {
		return Answer{}
	}
	return Answer{blk: rows, dict: snap.dict, head: p.head}
}

// Answers by how evalPlan produced them: array positions, so counting one
// builds no label string.
const (
	answerReused = iota
	answerExecuted
)

var metricAnswers = func() (c [2]*obs.Counter) {
	const help = "Planned evaluations by how they were answered: reused handed out the plan's last answer because no table it reads had changed since; executed ran the join, the de-duplication and the sort."
	for i, path := range [2]string{"reused", "executed"} {
		c[i] = obs.Default.Counter("disclosure_engine_answers_total", help, "path", path)
	}
	return c
}()

var metricMemoBytes = obs.Default.Gauge("disclosure_engine_answer_memo_bytes",
	"Bytes of answer ids the plans' memos hold, each database's share at most its fixed 16 MiB budget. At the budget an execution keeps no record, and its plan's next evaluation executes again.")

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
