package engine

// This file implements the engine's one executor, block-vectorized
// evaluation: a plan runs as a sequence of block transformations. The
// intermediate state after step i is a vecBatch — one uint32 column per
// live slot, all of equal length — and each step either
//
//   - materializes its binding-independent candidate rows once (constant
//     index buckets intersected as sorted u32 lists, plus a linear tail
//     scan) and crosses them with the incoming block column-at-a-time, or
//   - probes the table index per incoming binding, filtering candidates
//     through a bitset of the rows that satisfy the step's constant
//     arguments (built once per step, amortized over the whole block) and
//     through tight column compares for the join checks.
//
// Answers are deduplicated by interned head ids in the arena's u64-keyed
// dedupSet and sorted by the ranks of those ids (rank.go), without a string
// compare, so the only allocation of an evaluation is the caller-visible
// Answer's block of ids. A boolean query takes the same path: its head
// binds no slot, so every surviving binding collapses to one zero-width
// answer in dedupSet, as a head of constants only does — which means a
// satisfied boolean query's join runs to the end rather than stopping at
// its first witness, and its answer allocates nothing.

// vecColConst compares a column against a resolved plan constant.
type vecColConst struct {
	col int32
	cid int32 // index into arena cids
}

// vecColSlot ties a column to a slot: a cross-step check compares against
// the incoming block's column for the slot, a bind writes the slot.
type vecColSlot struct {
	col  int32
	slot int32
}

// vecColPair is a within-row equality between two columns — the compiled
// form of a variable repeated inside one atom.
type vecColPair struct {
	a, b int32
}

// vecStep is one step of a compiled plan: one body atom, probed or scanned,
// extending the incoming block of bindings.
type vecStep struct {
	relID     int32
	probeCol  int32 // column probed with a per-binding slot value; -1 = independent step
	probeSlot int32
	consts    []vecColConst
	cross     []vecColSlot // checks against slots bound by earlier steps
	selfPairs []vecColPair // checks against slots bound earlier in this step
	binds     []vecColSlot // first occurrences that later steps or the head read
	carry     []int32      // earlier-bound slots still live after this step
}

// pruneDead is the backward-liveness pass over the block program: a slot is
// materialized in a block only while some later step or the head still
// reads it. before[i] is the number of slots bound before step i, and
// before[len(steps)] the plan's slot count.
func (p *compiledPlan) pruneDead(before []int32) {
	live := make([]bool, p.nSlots)
	for _, s := range p.headSlots {
		live[s] = true
	}
	for i := len(p.steps) - 1; i >= 0; i-- {
		v := &p.steps[i]
		for s := int32(0); s < before[i]; s++ {
			if live[s] {
				v.carry = append(v.carry, s)
			}
		}
		kept := v.binds[:0]
		for _, b := range v.binds {
			if live[b.slot] {
				kept = append(kept, b)
			}
		}
		v.binds = kept
		for s := before[i]; s < before[i+1]; s++ {
			live[s] = false
		}
		if v.probeCol >= 0 {
			live[v.probeSlot] = true
		}
		for _, c := range v.cross {
			live[c.slot] = true
		}
	}
}

// resolveConsts fills the arena's constant-id block, memoizing resolutions
// on the plan. It reports false when a constant has never been interned —
// proof the query returns no rows on any current snapshot.
func (p *compiledPlan) resolveConsts(db *Database, a *execArena) bool {
	if cap(a.cids) < len(p.consts) {
		a.cids = make([]uint32, len(p.consts))
	} else {
		a.cids = a.cids[:len(p.consts)]
	}
	for i, c := range p.consts {
		v := c.id.Load()
		if v == 0 {
			id, ok := db.in.lookup(c.s)
			if !ok {
				return false
			}
			c.id.Store(uint64(id) + 1)
			v = uint64(id) + 1
		}
		a.cids[i] = uint32(v - 1)
	}
	return true
}

// runVec executes the block program against a snapshot, leaving the
// deduplicated answers in the arena (headIDs, listed in output order by
// order) and returning their count.
func (p *compiledPlan) runVec(db *Database, snap *Snapshot, a *execArena) int {
	a.cur.reset(p.nSlots)
	a.cur.n = 1 // one empty binding
	for si := range p.steps {
		st := &p.steps[si]
		t := snap.tables[st.relID]
		if t.n == 0 {
			return 0
		}
		a.next.reset(p.nSlots)
		if st.probeCol < 0 {
			stepIndependent(st, t, a)
		} else {
			stepProbe(st, t, a)
		}
		if a.next.n == 0 {
			return 0
		}
		a.cur, a.next = a.next, a.cur
	}
	return p.collectAnswers(db, snap, a)
}

// stepIndependent handles a step with no dependency on earlier bindings:
// its matching rows are computed once — constant buckets intersected as
// sorted u32 lists over the indexed base region, then the unindexed tail —
// and crossed with the incoming block column-at-a-time.
func stepIndependent(st *vecStep, t *tableSnap, a *execArena) {
	a.rows = a.rows[:0]
	indexed := 0
	if len(st.consts) > 0 {
		if b := t.base; b != nil && b.n0 > 0 {
			indexed = b.n0
			cand := b.column(int(st.consts[0].col))[a.cids[st.consts[0].cid]]
			for _, c := range st.consts[1:] {
				if len(cand) == 0 {
					break
				}
				cand = intersectSorted(cand, b.column(int(c.col))[a.cids[c.cid]], &a.rows2)
			}
			for _, id := range cand {
				if rowSelfMatch(st, t, id) {
					a.rows = append(a.rows, id)
				}
			}
		}
	}
	// Tail (or, without usable constants, the whole table) scans linearly.
	for r := int32(indexed); r < int32(t.n); r++ {
		if rowConstMatch(st, t, r, a.cids) && rowSelfMatch(st, t, r) {
			a.rows = append(a.rows, r)
		}
	}
	if len(a.rows) == 0 {
		return
	}
	// Cross product, column-at-a-time: every incoming binding pairs with
	// every matched row.
	m := len(a.rows)
	for _, s := range st.carry {
		col := a.cur.cols[s]
		out := a.next.cols[s]
		for r := 0; r < a.cur.n; r++ {
			v := col[r]
			for j := 0; j < m; j++ {
				out = append(out, v)
			}
		}
		a.next.cols[s] = out
	}
	for _, b := range st.binds {
		src := t.cols[b.col]
		out := a.next.cols[b.slot]
		for r := 0; r < a.cur.n; r++ {
			for _, id := range a.rows {
				out = append(out, src[id])
			}
		}
		a.next.cols[b.slot] = out
	}
	a.next.n = a.cur.n * m
}

// stepProbe handles a step joined to earlier bindings: each incoming
// binding probes the table index with its slot value, candidates are
// filtered through the step's constant bitset and column compares, and the
// short unindexed tail is scanned per binding.
func stepProbe(st *vecStep, t *tableSnap, a *execArena) {
	var bucket map[uint32][]int32
	n0 := 0
	if b := t.base; b != nil && b.n0 > 0 {
		bucket = b.column(int(st.probeCol))
		n0 = b.n0
	}
	// Constant filter, shared by the whole block: a bitset over the base
	// region marking rows that satisfy every constant argument (and the
	// within-row repeats), built from the first constant's bucket. Worth
	// the build only when several bindings amortize it.
	useBits := false
	if len(st.consts) > 0 && n0 > 0 && a.cur.n > 2 {
		a.bits.reset(n0)
		first := t.base.column(int(st.consts[0].col))[a.cids[st.consts[0].cid]]
		for _, id := range first {
			if rowConstMatch(st, t, id, a.cids) && rowSelfMatch(st, t, id) {
				a.bits.set(id)
			}
		}
		useBits = true
	}
	probeSrc := t.cols[st.probeCol]
	for r := 0; r < a.cur.n; r++ {
		val := a.cur.cols[st.probeSlot][r]
		if bucket != nil {
			for _, id := range bucket[val] {
				if useBits {
					if !a.bits.test(id) {
						continue
					}
				} else if !(rowConstMatch(st, t, id, a.cids) && rowSelfMatch(st, t, id)) {
					continue
				}
				if rowCrossMatch(st, t, id, &a.cur, r) {
					emitRow(st, t, a, r, id)
				}
			}
		}
		for id := int32(n0); id < int32(t.n); id++ {
			if probeSrc[id] == val &&
				rowConstMatch(st, t, id, a.cids) && rowSelfMatch(st, t, id) &&
				rowCrossMatch(st, t, id, &a.cur, r) {
				emitRow(st, t, a, r, id)
			}
		}
	}
}

// emitRow appends one (binding, row) join result to the output block.
func emitRow(st *vecStep, t *tableSnap, a *execArena, r int, id int32) {
	for _, s := range st.carry {
		a.next.cols[s] = append(a.next.cols[s], a.cur.cols[s][r])
	}
	for _, b := range st.binds {
		a.next.cols[b.slot] = append(a.next.cols[b.slot], t.cols[b.col][id])
	}
	a.next.n++
}

func rowConstMatch(st *vecStep, t *tableSnap, id int32, cids []uint32) bool {
	for _, c := range st.consts {
		if t.cols[c.col][id] != cids[c.cid] {
			return false
		}
	}
	return true
}

func rowSelfMatch(st *vecStep, t *tableSnap, id int32) bool {
	for _, p := range st.selfPairs {
		if t.cols[p.a][id] != t.cols[p.b][id] {
			return false
		}
	}
	return true
}

func rowCrossMatch(st *vecStep, t *tableSnap, id int32, cur *vecBatch, r int) bool {
	for _, c := range st.cross {
		if t.cols[c.col][id] != cur.cols[c.slot][r] {
			return false
		}
	}
	return true
}

// intersectSorted intersects two ascending row-id lists into *scratch
// (reusing its capacity) and returns the result.
func intersectSorted(x, y []int32, scratch *[]int32) []int32 {
	out := (*scratch)[:0]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	*scratch = out
	return out
}

// collectAnswers deduplicates the final block by interned head ids and
// orders the distinct answers lexicographically by their rendered strings —
// the order sortTuples gives — through the database's rank table; it
// returns the answer count. Answers live in the arena until copied out
// (answer).
func (p *compiledPlan) collectAnswers(db *Database, snap *Snapshot, a *execArena) int {
	k := len(p.headSlots)
	a.headIDs = a.headIDs[:0]
	a.dedup.reset(a.cur.n)
	nAns := 0
	for r := 0; r < a.cur.n; r++ {
		base := len(a.headIDs)
		for _, s := range p.headSlots {
			a.headIDs = append(a.headIDs, a.cur.cols[s][r])
		}
		if a.dedup.insert(a.headIDs, k) {
			nAns++
		} else {
			a.headIDs = a.headIDs[:base]
		}
	}
	if cap(a.order) < nAns {
		a.order = make([]uint64, nAns)
	} else {
		a.order = a.order[:nAns]
	}
	for i := range a.order {
		a.order[i] = uint64(i)
	}
	if nAns > 1 { // k > 0: a head without variables has one answer
		sortAnswers(a.order, a.headIDs, db.ranksFor(snap), k)
	}
	return nAns
}

// answer copies the arena's sorted answers out as one pointer-free block of
// head-variable ids: the only allocation of an evaluation (none when the
// head has no variables), and nothing in it for the collector to walk.
func (p *compiledPlan) answer(snap *Snapshot, a *execArena, nAns int) Answer {
	if nAns == 0 {
		return Answer{}
	}
	k := len(p.headSlots)
	ids := make([]uint32, nAns*k)
	for oi, o := range a.order[:nAns] {
		copy(ids[oi*k:], a.headIDs[int(o)*k:int(o)*k+k])
	}
	return Answer{ids: ids, strs: snap.strs, head: p.head, n: nAns, k: k}
}
