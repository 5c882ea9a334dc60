package engine

import (
	"cmp"
	"slices"
)

// This file implements the engine's one executor, block-vectorized
// evaluation: a plan runs as a sequence of block transformations. The
// intermediate state after step i is a vecBatch — one uint32 column per
// live slot, all of equal length — and each step either
//
//   - materializes its binding-independent candidate rows once (constant
//     index buckets of the base intersected as sorted u32 lists, plus the
//     tail index's bucket of the first constant) and crosses them with the
//     incoming block column-at-a-time, or
//   - probes the base and tail indexes per incoming binding, filtering
//     candidates through a bitset of the rows that satisfy the step's
//     constant arguments (built once per step, amortized over the whole
//     block) and through tight column compares for the join checks.
//
// No step reads a table row by row, except an independent step without a
// constant, which must. The first step of a delta program (plan.go) reads
// only the rows a load added: a scan starts at the first of them, and an
// index bucket, ascending, is cut at it by binary search.
//
// Answers are deduplicated by interned head ids in the arena's u64-keyed
// dedupSet and sorted by the bytes behind those ids (sortCollected), so an
// execution allocates only what its Answer keeps: the block of ids, and the
// plan's memo record of it (evalPlan). A boolean query takes the same path:
// its head binds no slot, so every surviving binding collapses to one
// zero-width answer in dedupSet, as a head of constants only does — which
// means a satisfied boolean query's join runs to the end rather than
// stopping at its first witness, and its answer holds no ids.

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
func (p *program) pruneDead(before []int32) {
	live := make([]bool, p.nSlots)
	for _, s := range p.headSlots {
		live[s] = true
	}
	// The steps' carries are collected last step first, then copied into
	// one array of their exact size, which the steps' carry windows share.
	most := int32(0)
	for _, b := range before[:len(p.steps)] {
		most += b
	}
	carried := make([]int32, 0, most)
	ends := make([]int, len(p.steps))
	for i := len(p.steps) - 1; i >= 0; i-- {
		v := &p.steps[i]
		for s := int32(0); s < before[i]; s++ {
			if live[s] {
				carried = append(carried, s)
			}
		}
		ends[i] = len(carried)
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
	flat := slices.Clone(carried)
	for i := range p.steps {
		from := 0
		if i+1 < len(p.steps) {
			from = ends[i+1]
		}
		if ends[i] > from {
			p.steps[i].carry = flat[from:ends[i]:ends[i]]
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

// run executes the program against a snapshot, leaving its final block of
// bindings in a.cur, and reports whether the block holds any. Its first
// step reads its table from row from on: 0 for the whole table, and for a
// delta program the table's row count at the plan's last answer.
func (pr *program) run(snap *Snapshot, a *execArena, from int) bool {
	a.cur.reset(pr.nSlots)
	a.cur.n = 1 // one empty binding
	for si := range pr.steps {
		st := &pr.steps[si]
		t := snap.tables[st.relID]
		if t.n == 0 {
			return false
		}
		a.next.reset(pr.nSlots)
		if st.probeCol < 0 {
			stepIndependent(st, t, a, from)
		} else {
			stepProbe(st, t, a)
		}
		if a.next.n == 0 {
			return false
		}
		a.cur, a.next = a.next, a.cur
		from = 0
	}
	return true
}

// stepIndependent handles a step with no dependency on earlier bindings:
// its matching rows from row from on are computed once — constant buckets
// intersected as sorted u32 lists over the base, then the tail's bucket of
// the first constant, or, without a constant, a scan of the table — and
// crossed with the incoming block column-at-a-time.
func stepIndependent(st *vecStep, t *tableSnap, a *execArena, from int) {
	a.rows = a.rows[:0]
	if len(st.consts) == 0 {
		for r := int32(from); r < int32(t.n); r++ {
			if rowSelfMatch(st, t, r) {
				a.rows = append(a.rows, r)
			}
		}
	} else {
		c0 := st.consts[0]
		var cand []int32
		if t.base != nil && from < t.base.end {
			cand = rowsFrom(t.base.column(int(c0.col)).bucket(a.cids[c0.cid]), from)
		}
		for _, c := range st.consts[1:] {
			if len(cand) == 0 {
				break
			}
			cand = intersectSorted(cand, t.base.column(int(c.col)).bucket(a.cids[c.cid]), &a.rows2)
		}
		for _, id := range cand {
			if rowSelfMatch(st, t, id) {
				a.rows = append(a.rows, id)
			}
		}
		for _, id := range rowsFrom(t.tail.column(int(c0.col)).bucket(a.cids[c0.cid]), from) {
			if rowConstMatch(st, t, id, a.cids) && rowSelfMatch(st, t, id) {
				a.rows = append(a.rows, id)
			}
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
// binding probes the base index and then the tail index with its slot
// value, and candidates are filtered through the step's constant bitset
// and column compares.
func stepProbe(st *vecStep, t *tableSnap, a *execArena) {
	// Constant filter, shared by the whole block: a bitset over the table
	// marking rows that satisfy every constant argument (and the within-row
	// repeats), built from the first constant's buckets. Worth the build
	// only when several bindings amortize it.
	useBits := false
	if len(st.consts) > 0 && a.cur.n > 2 {
		a.bits.reset(t.n)
		c0 := st.consts[0]
		base, tail := t.column(int(c0.col))
		for _, x := range [2]*colIndex{base, tail} {
			for _, id := range x.bucket(a.cids[c0.cid]) {
				if rowConstMatch(st, t, id, a.cids) && rowSelfMatch(st, t, id) {
					a.bits.set(id)
				}
			}
		}
		useBits = true
	}
	base, tail := t.column(int(st.probeCol))
	for r := 0; r < a.cur.n; r++ {
		val := a.cur.cols[st.probeSlot][r]
		for _, x := range [2]*colIndex{base, tail} {
			for _, id := range x.bucket(val) {
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

// rowsFrom returns the rows of an ascending bucket from row from on.
func rowsFrom(rows []int32, from int) []int32 {
	if from == 0 {
		return rows
	}
	i, _ := slices.BinarySearch(rows, int32(from))
	return rows[i:]
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

// collect adds the head rows of the final block (a.cur) that a.dedup has
// not seen to the distinct answers in a.headIDs, k head-variable ids each,
// and returns their count, from nAns before. Programs of one plan share k,
// so a delta evaluation collects the blocks of several into one set.
func (pr *program) collect(a *execArena, nAns int) int {
	k := len(pr.headSlots)
	for r := 0; r < a.cur.n; r++ {
		base := len(a.headIDs)
		for _, s := range pr.headSlots {
			a.headIDs = append(a.headIDs, a.cur.cols[s][r])
		}
		if a.dedup.insert(a.headIDs, k) {
			nAns++
		} else {
			a.headIDs = a.headIDs[:base]
		}
	}
	return nAns
}

// sortCollected lists the nAns collected answers in a.order in answer
// order: lexicographically by their rendered strings — the order sortTuples
// gives — comparing the bytes of snap's dictionary (compareRows). The order
// must come from the strings, not from the raw ids: ids follow first-intern
// order, which differs between a primary and a follower that bootstrapped
// from a checkpoint, so the two would return one answer in two orders.
//
// Each answer's prefix key (prefixKey of its leading cell) is read once into
// a.keys, and two answers compare by their keys first: keys that differ
// order their strings, so only a tie reads the dictionary again. The keys
// are scratch, rewritten by the next sort.
func (p *compiledPlan) sortCollected(snap *Snapshot, a *execArena, nAns int) {
	a.order = slices.Grow(a.order[:0], nAns)[:nAns]
	for i := range a.order {
		a.order[i] = int32(i)
	}
	k, ids, d := len(p.headSlots), a.headIDs, snap.dict
	if k == 0 {
		return // one answer at most: dedupSet holds one zero-width row
	}
	a.keys = slices.Grow(a.keys[:0], nAns)[:nAns]
	for i := range a.keys {
		a.keys[i] = d.prefixKey(ids[i*k])
	}
	keys := a.keys
	slices.SortFunc(a.order, func(x, y int32) int {
		if c := cmp.Compare(keys[x], keys[y]); c != 0 {
			return c
		}
		return compareRows(d, ids[int(x)*k:int(x)*k+k], ids[int(y)*k:int(y)*k+k])
	})
}

// rows copies the arena's sorted answers out as one block of head-variable
// ids, pointer-free but for the block's own slice: what an Answer of this
// execution holds and the plan's memo record keeps. An
// execution with no answers gets no block, and one whose head has no
// variables the shared unit row; neither allocates.
func (p *compiledPlan) rows(a *execArena, nAns int) *answerBlock {
	k := len(p.headSlots)
	switch {
	case nAns == 0:
		return nil
	case k == 0:
		return unitRow
	}
	ids := make([]uint32, nAns*k)
	for oi, o := range a.order[:nAns] {
		copy(ids[oi*k:], a.headIDs[int(o)*k:int(o)*k+k])
	}
	return &answerBlock{ids: ids, n: nAns, k: k}
}
