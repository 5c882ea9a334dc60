package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
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
// of its database. A plan also keeps its last answer and the row counts it
// was answered at, and answers a later snapshot by handing it out again, by
// merging into it what its delta programs find in the rows added since, or
// by executing in full (evalPlan).

// planConst is one distinct body constant. The interner id is resolved
// lazily and memoized: interning is monotonic, so a resolution can never be
// invalidated, and a constant absent from the interner proves the query
// returns no rows on any current snapshot.
type planConst struct {
	s  string
	id atomic.Uint64 // resolved id + 1; 0 = not yet resolved
}

// newPlanConsts returns a plan's constants, their values copied into one
// string: a parsed constant is a substring of the query text, and a cached
// plan must not keep a request's text alive.
func newPlanConsts(vals []string) []*planConst {
	if len(vals) == 0 {
		return nil
	}
	n := 0
	for _, v := range vals {
		n += len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for _, v := range vals {
		b.WriteString(v)
	}
	all := b.String()
	cs := make([]planConst, len(vals))
	out := make([]*planConst, len(vals))
	for i, v := range vals {
		cs[i].s, all = all[:len(v)], all[len(v):]
		out[i] = &cs[i]
	}
	return out
}

// headOp is one head position: a constant, held as the bytes it renders to
// between two quotes and whether they are plain (a head constant need not
// be interned), or a variable, read from column col of an answer's id rows.
type headOp struct {
	isConst bool
	plain   bool
	quoted  []byte // `"` + the constant + `"`: a plain one is its JSON string
	col     int32  // index among the head's variable positions
}

// value returns the bytes a constant renders to.
func (h *headOp) value() []byte { return h.quoted[1 : len(h.quoted)-1] }

// planAtom is one body atom as the compiler reads it: its relation and, per
// argument, a variable's number (≥ 0) or the complement of a constant's
// index in the plan's consts (< 0).
type planAtom struct {
	rel  int32
	args []int32
}

// program is one block program over a plan's body — its steps in join
// order, the slots of the head's variable positions, and its slot count —
// which the executor in vexec.go runs.
type program struct {
	steps     []vecStep
	headSlots []int32 // slots of variable head positions, in head order
	nSlots    int
}

// compiledPlan is an immutable compiled query; the only mutable fields are
// the memoized constant resolutions, which are monotonic and atomic, the
// delta programs, compiled once, on the plan's first delta, and the memo of
// its last answer. Its own program answers every query in full, boolean
// ones included; the delta program of a step answers what a load added to
// that step's table (evalPlan).
type compiledPlan struct {
	program
	head   []headOp
	consts []*planConst
	rels   []int32 // the distinct relations the steps read

	// deltas holds one delta program per step (deltaPrograms) once
	// evalPlan first needs them.
	deltas atomic.Pointer[[]program]

	// memo holds the plan's last answer, which evalPlan hands out again
	// while the tables in rels are unchanged, and extends while they grow.
	memo *memoSlot
}

// answerMemo records one answer of a plan: the row counts of the snapshot
// it answered at (Snapshot.counts, of which the plan reads those of rels)
// and its rows (nil for none). A record is immutable; evalPlan replaces it
// whole.
type answerMemo struct {
	counts []int
	rows   *answerBlock
}

// covers reports whether m counts at least as many rows as o in every table
// of rels: whether, to a plan that reads rels, m is at least as new as o.
func (m *answerMemo) covers(o *answerMemo, rels []int32) bool {
	for _, r := range rels {
		if m.counts[r] < o.counts[r] {
			return false
		}
	}
	return true
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

// keep makes m the slot's record in place of the one there, unless the one
// there covers m over rels, the tables the plan reads: an evaluation pinned
// to a snapshot older than the record leaves it for the current ones to
// reuse. The old record is released first, so a replacement is charged its
// own size only; a record the budget cannot take leaves the slot empty, and
// the plan's next evaluation executes.
func (s *memoSlot) keep(m *answerMemo, rels []int32) {
	if held := s.rec.Load(); held != nil && held.covers(m, rels) {
		return
	}
	s.acc.release(s.rec.Swap(nil))
	if s.acc.charge(m.bytes()) {
		s.acc.release(s.rec.Swap(m))
	}
}

// drop empties the slot of a plan that has been collected.
func (s *memoSlot) drop() { s.acc.release(s.rec.Swap(nil)) }

// compilePlan checks a prepared query against the database schema and
// compiles its canonical isomorph, read from the query's prepared form:
// atoms in canonical order, variables by their canonical numbers. Plans are
// name-independent: every query with the same canonical key executes the
// same program and produces the same answers.
func compilePlan(db *Database, pq *cq.Prepared) (*compiledPlan, error) {
	f, err := pq.Form()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	q := f.Query()
	nArgs := 0
	for _, a := range q.Body {
		id, ok := db.relID[a.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: query %s references unknown relation %q", q.Name, a.Rel)
		}
		if len(a.Args) != db.cores[id].rel.Arity() {
			return nil, fmt.Errorf("engine: query %s: atom %s has %d arguments, relation has arity %d",
				q.Name, a.Rel, len(a.Args), db.cores[id].rel.Arity())
		}
		nArgs += len(a.Args)
	}
	p := &compiledPlan{memo: &memoSlot{acc: db.memo}}

	// Number the distinct constants in canonical order; the variables come
	// numbered.
	body := make([]planAtom, len(q.Body))
	args := make([]int32, nArgs)
	var constBuf [8]string
	var relBuf, headBuf [16]int32
	consts, rels, headVars := constBuf[:0], relBuf[:0], headBuf[:0]
	for i := range body {
		a := f.CanonicalAtom(i, args)
		at := planAtom{rel: int32(db.relID[a.Rel]), args: args[:len(a.Args):len(a.Args)]}
		args = args[len(a.Args):]
		for j, t := range a.Args {
			if at.args[j] >= 0 {
				continue
			}
			c := slices.Index(consts, t.Value)
			if c < 0 {
				c = len(consts)
				consts = append(consts, t.Value)
			}
			at.args[j] = ^int32(c)
		}
		body[i] = at
		if !slices.Contains(rels, at.rel) {
			rels = append(rels, at.rel)
		}
	}
	p.consts, p.rels = newPlanConsts(consts), slices.Clone(rels)
	p.head = make([]headOp, len(q.Head))
	for i, t := range q.Head {
		if v := f.HeadVar(i); v >= 0 {
			p.head[i] = headOp{col: int32(len(headVars))}
			headVars = append(headVars, v)
		} else {
			p.head[i] = headOp{isConst: true, plain: isPlain(t.Value), quoted: []byte(`"` + t.Value + `"`)}
		}
	}
	p.program = compile(body, f.NumVars(), headVars, -1)
	// A plan the cache evicted, and no evaluation holds any more, gives its
	// last answer's bytes back when the collector takes it.
	runtime.AddCleanup(p, (*memoSlot).drop, p.memo)
	return p, nil
}

// compile builds a block program over body, whose variables are numbered
// below nVars and whose head's variable positions read the variables head,
// with atom first when first ≥ 0 (a delta program, which reads the rows a
// load added to that atom's table before anything else) and then in the
// static join order:
// greedily, the atom with the most bound arguments (constants, or variables
// bound by already-ordered atoms) — the compile-time image of the seed
// evaluator's runtime heuristic, which depended only on *which* variables
// were bound, never on their values. Ties prefer more bound variables: an
// atom joined to the already-ordered prefix through a shared variable
// extends the join chain, whereas a constant-only atom starts an
// independent subtree and risks a cross product (the seed only avoided
// those because generated bodies happened to list chains in order; the
// canonical atom order the plan compiles from carries no such luck).
// Remaining ties keep body order — canonical order for the plan's own
// program — so isomorphic queries get identical programs.
func compile(body []planAtom, nVars int, head []int32, first int) program {
	bound := make([]bool, nVars+len(body))
	placed := bound[nVars:]
	ints := make([]int32, 2*len(body)+1+nVars)
	order := ints[:0:len(body)]
	place := func(ai int) {
		order = append(order, int32(ai))
		placed[ai] = true
		for _, v := range body[ai].args {
			if v >= 0 {
				bound[v] = true
			}
		}
	}
	if first >= 0 {
		place(first)
	}
	for len(order) < len(body) {
		best, bestBound, bestVars := -1, -1, -1
		for ai, at := range body {
			if placed[ai] {
				continue
			}
			nb, nv := 0, 0
			for _, v := range at.args {
				if v < 0 {
					nb++
				} else if bound[v] {
					nb++
					nv++
				}
			}
			if nb > bestBound || (nb == bestBound && nv > bestVars) {
				best, bestBound, bestVars = ai, nb, nv
			}
		}
		place(best)
	}
	nConsts, nVarCols := 0, 0
	for _, at := range body {
		for _, v := range at.args {
			if v < 0 {
				nConsts++
			} else {
				nVarCols++
			}
		}
	}

	// Slots are assigned in first-occurrence order across the ordered steps,
	// so a slot below the count bound before a step is a cross-step
	// dependency and one at or above it was bound earlier in the same step.
	// Each column is one constant check, one cross-step check, one bind or
	// one self pair (a variable repeated within the step that binds it).
	// The steps' lists are windows of one array per kind, cross checks and
	// binds sharing one, so a plan's step lists take three allocations.
	pr := program{steps: make([]vecStep, len(order))}
	before := ints[len(body) : 2*len(body)+1] // slots bound before each step
	slots := ints[2*len(body)+1:]
	for v := range slots {
		slots[v] = -1
	}
	consts := make([]vecColConst, 0, nConsts)
	cols := make([]vecColSlot, 0, nVarCols)
	var pairs []vecColPair
	for i, ai := range order {
		at := body[ai]
		st := &pr.steps[i]
		*st = vecStep{relID: at.rel, probeCol: -1}
		start := int32(pr.nSlots)
		before[i] = start
		from := len(consts)
		for pos, v := range at.args {
			if v < 0 {
				consts = append(consts, vecColConst{col: int32(pos), cid: ^v})
			}
		}
		st.consts = window(consts, from)
		from = len(cols)
		for pos, v := range at.args {
			if v < 0 {
				continue
			}
			if s := slots[v]; s >= 0 && s < start {
				// Probe with the first variable an earlier step bound: join
				// variables are typically keys with small buckets.
				if st.probeCol < 0 {
					st.probeCol, st.probeSlot = int32(pos), s
				}
				cols = append(cols, vecColSlot{col: int32(pos), slot: s})
			}
		}
		st.cross = window(cols, from)
		from, fromPairs := len(cols), len(pairs)
		for pos, v := range at.args {
			if v < 0 {
				continue
			}
			switch s := slots[v]; {
			case s < 0:
				s = int32(pr.nSlots)
				slots[v] = s
				pr.nSlots++
				cols = append(cols, vecColSlot{col: int32(pos), slot: s})
			case s >= start:
				for _, b := range cols[from:] {
					if b.slot == s {
						pairs = append(pairs, vecColPair{a: b.col, b: int32(pos)})
					}
				}
			}
		}
		st.binds = window(cols, from)
		st.selfPairs = window(pairs, fromPairs)
	}
	before[len(order)] = int32(pr.nSlots)
	if len(head) > 0 {
		pr.headSlots = make([]int32, len(head))
		for i, v := range head {
			pr.headSlots[i] = slots[v]
		}
	}
	pr.pruneDead(before)
	return pr
}

// window returns s's elements from from on, sliced to their own length so
// that nothing appended to the window overwrites the rest of s; nil when
// there are none.
func window[T any](s []T, from int) []T {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}

// deltaPrograms returns the plan's delta programs, one per step of its own
// program, compiling them on the plan's first delta, so a plan that never
// sees a load compiles none: delta program i is compile's program over the
// body the steps were compiled from (body), with that of step i first.
// Racing first deltas compile equal programs, and either may be kept.
func (p *compiledPlan) deltaPrograms(snap *Snapshot) []program {
	if d := p.deltas.Load(); d != nil {
		return *d
	}
	body, nVars := p.body(snap)
	d := make([]program, len(body))
	for i := range d {
		d[i] = compile(body, nVars, p.headSlots, i)
	}
	p.deltas.Store(&d)
	return d
}

// body recovers the body the plan's program was compiled from, atom i
// being step i, with each slot as the number of its variable, so that a
// plan keeps no body of its own. A column takes the step's constant, or the
// variable of the slot the step binds or checks there; a column nothing
// after the step reads (a variable that occurs in no other atom, so its
// bind was pruned) takes a variable of its own, shared with the columns
// that repeat it within the step (selfPairs). snap gives the arities.
func (p *compiledPlan) body(snap *Snapshot) ([]planAtom, int) {
	nVars := p.nSlots
	body := make([]planAtom, len(p.steps))
	for i, st := range p.steps {
		args := make([]int32, len(snap.tables[st.relID].cols))
		for c := range args {
			args[c] = int32(nVars)
			nVars++
		}
		for _, c := range st.consts {
			args[c.col] = ^c.cid
		}
		for _, cs := range [][]vecColSlot{st.binds, st.cross} {
			for _, c := range cs {
				args[c.col] = c.slot
			}
		}
		for _, sp := range st.selfPairs {
			args[sp.b] = args[sp.a]
		}
		body[i] = planAtom{rel: st.relID, args: args}
	}
	return body, nVars
}

// evalPlan answers a compiled plan at a snapshot as interned ids. It
// compares the row counts of the tables the plan reads at snap with those
// of its last answer's record (path):
//
//   - all equal: it hands that answer out again — no arena, no join, no
//     allocation;
//   - some grew, none shrank and none by a bulk load: it runs the delta
//     program of each atom whose table grew, de-duplicates and sorts only
//     what they find, and merges that into the last answer (delta);
//   - otherwise — no record, a snapshot older than the record, or a bulk
//     load — it executes the plan's program in full (execute).
//
// Then it records the answer, if the database's memo budget takes it and
// the slot holds no newer record (memoSlot.keep). It never blocks: the
// snapshot is immutable, constant resolution is memoized after the first
// lookup, and the memo is one atomic record.
//
// Every path gives the executed answer. Tables are append-only and a
// follower's resync builds a new Database, so a table's first n rows are
// the same at every snapshot that holds n: equal counts mean equal tables,
// and the answer is a function of those rows alone (a plan constant's id
// never changes once interned, and the order is the strings'). With counts
// that only grew, an answer at snap is one at the record's counts or a join
// that uses at least one row added since; the delta program of atom i finds
// every join whose atom i uses such a row — its first step reads only the
// added rows, every other step the whole snapshot — so together they find
// every new answer, one found twice is de-duplicated, and one the record
// already holds is dropped by the merge. A satisfied answer with no head
// variables (unitRow) stays satisfied as tables grow, so it is reused.
func (db *Database) evalPlan(p *compiledPlan, snap *Snapshot) Answer {
	m := p.memo.rec.Load()
	path := p.path(m, snap)
	metricAnswers[path].Inc()
	if path == answerReused {
		return p.answer(snap, m.rows)
	}
	a := db.getArena()
	defer db.putArena(a)
	var blk *answerBlock
	// A constant that has never been inserted anywhere proves no row of
	// any current snapshot can match, nor could one of the record's.
	if p.resolveConsts(db, a) {
		if path == answerDelta {
			blk = p.delta(snap, m, a)
		} else {
			blk = p.execute(snap, a)
		}
	}
	// p is live until p.answer, after keep: its cleanup cannot empty the
	// slot before this record enters it and leave the record's bytes
	// charged to no one.
	p.memo.keep(&answerMemo{counts: snap.counts, rows: blk}, p.rels)
	return p.answer(snap, blk)
}

// path decides how evalPlan answers at snap, given the plan's record m.
// A load is bulk by the rule that rotates an index base
// (buildSnapshotLocked): more than baseTailMax rows and more than a quarter
// of the table. Its delta would read about as much as a full execution.
func (p *compiledPlan) path(m *answerMemo, snap *Snapshot) int {
	if m == nil {
		return answerExecuted
	}
	grew, bulk := false, false
	for _, r := range p.rels {
		held, n := m.counts[r], snap.counts[r]
		if n < held {
			return answerExecuted // a snapshot older than the record
		}
		if added := n - held; added > 0 {
			grew = true
			bulk = bulk || (added > baseTailMax && added*4 > n)
		}
	}
	switch {
	case !grew || m.rows == unitRow:
		return answerReused
	case bulk:
		return answerExecuted
	}
	return answerDelta
}

// execute runs the plan's own program at snap and returns its answer.
func (p *compiledPlan) execute(snap *Snapshot, a *execArena) *answerBlock {
	n := 0
	if p.run(snap, a, 0) {
		a.resetAnswers(a.cur.n)
		n = p.collect(a, 0)
		p.sortCollected(snap, a, n)
	}
	return p.rows(a, n)
}

// delta answers at snap from the record m, whose counts snap's all reach:
// it runs the delta program of each atom whose table grew, from the row
// count m holds for it on, de-duplicates and sorts what they find, and
// merges that into m's rows (merge). It returns m's rows when nothing is
// new.
func (p *compiledPlan) delta(snap *Snapshot, m *answerMemo, a *execArena) *answerBlock {
	a.resetAnswers(0)
	n := 0
	for i, d := range p.deltaPrograms(snap) {
		r := p.steps[i].relID
		if from := m.counts[r]; snap.counts[r] > from && d.run(snap, a, from) {
			n = d.collect(a, n)
		}
	}
	switch {
	case n == 0:
		return m.rows
	case len(p.headSlots) == 0:
		return unitRow // m held no row: path reuses a unit row
	}
	p.sortCollected(snap, a, n)
	return merge(m.rows, snap.dict, a, n, len(p.headSlots))
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
	answerDelta
	answerExecuted
)

var metricAnswers = func() (c [3]*obs.Counter) {
	const help = "Planned evaluations by how they were answered: reused handed out the plan's last answer, no table it reads having changed since (or only grown under a satisfied answer without head variables); delta merged into that answer the joins that use a row added since; executed ran the whole join, the de-duplication and the sort — no answer recorded, a snapshot older than the recorded one, or a bulk load."
	for i, path := range [3]string{"reused", "delta", "executed"} {
		c[i] = obs.Default.Counter("disclosure_engine_answers_total", help, "path", path)
	}
	return c
}()

var metricMemoBytes = obs.Default.Gauge("disclosure_engine_answer_memo_bytes",
	"Bytes of answer ids the plans' memos hold, each database's share at most its fixed 16 MiB budget: every plan's last answer, which the next evaluation reuses while the tables it reads are unchanged and extends while they grow. At the budget an answer is not recorded, and its plan's next evaluation executes in full.")

// Plan cache: the shared sharded clock memo of internal/clockcache, keyed
// by canonical fingerprint and admitting on a second miss exactly like the
// labeling cache in internal/label.

// DefaultPlanCacheCapacity bounds the plan cache of every Database.
const DefaultPlanCacheCapacity = 4096

// planCache is the clock cache of a database's plans and its miss path.
type planCache struct {
	c *clockcache.Cache[*compiledPlan]
}

func newPlanCache(capacity int) *planCache {
	return &planCache{c: clockcache.New[*compiledPlan](capacity)}
}

// get returns the cached plan for a prepared query's canonical form,
// compiling it on a miss and offering it to the cache, which keeps it on
// the form's second miss: a hit reads the key and the
// fingerprint the query was prepared with and nothing else, only a miss asks
// it for its prepared form. Misses compile outside any lock, as label-cache
// misses label: racing misses on one key compile in parallel and the first
// insertion stays resident. Compilation errors are never cached.
func (pc *planCache) get(db *Database, pq *cq.Prepared) (*compiledPlan, error) {
	if p, ok := pc.c.Get(pq.Fingerprint, pq.Key); ok {
		return p, nil
	}
	p, err := compilePlan(db, pq)
	if err != nil {
		return nil, err
	}
	pc.c.Add(pq.Fingerprint, pq.Key, p)
	return p, nil
}

// PlanCacheStats is a point-in-time snapshot of plan-cache counters.
type PlanCacheStats = clockcache.Stats

// PlanStats aggregates the plan cache's per-shard counters.
func (db *Database) PlanStats() PlanCacheStats {
	return db.plans.c.Stats()
}
