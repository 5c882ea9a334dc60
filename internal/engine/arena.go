package engine

// This file implements the pooled execution scratch that makes steady-state
// execution allocate nothing but what its answer keeps: every buffer a plan
// run needs — resolved constants, binding blocks, candidate row-id blocks, a
// bitset over the table's rows, and a u64-keyed answer-dedup set —
// lives in one execArena checked out of a per-Database sync.Pool for the
// duration of a run and returned afterwards. Buffers grow to the high-water mark of the
// queries they serve and are reused as-is; an arena that ballooned on a
// pathological cross product is dropped instead of pooled so one bad query
// cannot pin memory forever.

// arenaRetainLimit bounds the total uint32-equivalents of backing capacity
// an arena may hold and still be returned to the pool. Runs whose
// intermediate batches outgrow it fall back to fresh allocations next time
// rather than keeping the peak resident.
const arenaRetainLimit = 1 << 21

// vecBatch is one block of partial join results: a column of bound values
// per live slot, all of length n. Slots that are dead at the current step
// (bound earlier but never read again, or not yet bound) carry no column.
type vecBatch struct {
	cols [][]uint32
	n    int
}

// reset prepares the batch for nSlots slots with zero rows, keeping the
// backing arrays of previous runs.
func (b *vecBatch) reset(nSlots int) {
	for len(b.cols) < nSlots {
		b.cols = append(b.cols, nil)
	}
	for i := 0; i < nSlots; i++ {
		b.cols[i] = b.cols[i][:0]
	}
	b.n = 0
}

// bitset is a fixed-size bit vector over table row ids, used to intersect
// index buckets with binding-independent constant filters.
type bitset struct {
	words []uint64
}

// reset sizes the bitset to nbits cleared bits, reusing capacity.
func (b *bitset) reset(nbits int) {
	nw := (nbits + 63) >> 6
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
}

func (b *bitset) set(i int32)       { b.words[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) test(i int32) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// dedupSet is an open-addressed hash set over answer rows stored in a flat
// []uint32 (k values per answer). It replaces the map[string]struct{} +
// string(keyBuf) dedup of the pre-vectorized executor: keys are hashed
// directly from the interned ids, collisions are resolved by comparing the
// stored rows, and the table is arena-owned so repeated runs allocate
// nothing.
type dedupSet struct {
	tab   []int32 // answer index + 1; 0 = empty
	spare []int32 // the table before the last grow, reused by the next
	n     int
}

// reset clears the set, sizing the table for about hint answers: it
// clears and probes the power of two the hint needs, however much capacity
// an earlier, larger block left behind (oversized counts that).
func (d *dedupSet) reset(hint int) {
	want := 16
	for want < hint*2 {
		want <<= 1
	}
	if cap(d.tab) < want {
		d.tab = make([]int32, want)
	} else {
		d.tab = d.tab[:want]
		clear(d.tab)
	}
	d.n = 0
}

// hashRow hashes k interned ids with an FNV-1a core and a final avalanche,
// so near-identical rows spread across the table.
func hashRow(ids []uint32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range ids {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// insert adds the candidate answer occupying rows[len(rows)-k:] of the flat
// answer store and reports whether it was new. Existing answer j lives at
// rows[j*k : j*k+k]. k == 0 (a head without variables: a boolean query, or
// constants only) collapses every answer to one, holding no ids.
func (d *dedupSet) insert(rows []uint32, k int) bool {
	if k == 0 {
		if d.n > 0 {
			return false
		}
		d.n = 1
		return true
	}
	idx := len(rows)/k - 1
	key := rows[len(rows)-k:]
	if (d.n+1)*4 > len(d.tab)*3 {
		d.grow(rows, k)
	}
	mask := uint64(len(d.tab) - 1)
	i := hashRow(key) & mask
	for {
		e := d.tab[i]
		if e == 0 {
			d.tab[i] = int32(idx) + 1
			d.n++
			return true
		}
		if equalRow(rows[(e-1)*int32(k):], key, k) {
			return false
		}
		i = (i + 1) & mask
	}
}

func equalRow(a, b []uint32, k int) bool {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// grow doubles the table and re-inserts the resident answer indexes. The
// old table becomes the spare, whose capacity a later grow reuses: a delta
// evaluation, which cannot size the set before it collects, grows it in
// place from run to run.
func (d *dedupSet) grow(rows []uint32, k int) {
	old := d.tab
	if n := len(old) * 2; cap(d.spare) < n {
		d.tab = make([]int32, n)
	} else {
		d.tab = d.spare[:n]
		clear(d.tab)
	}
	d.spare = old
	mask := uint64(len(d.tab) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := hashRow(rows[(e-1)*int32(k):(e-1)*int32(k)+int32(k)]) & mask
		for d.tab[i] != 0 {
			i = (i + 1) & mask
		}
		d.tab[i] = e
	}
}

// execArena is the complete per-run scratch state of the block executor
// (vexec.go). All fields are buffers reused across runs; none escape a run
// except through the answer copied out of it.
type execArena struct {
	cids    []uint32 // resolved plan constants
	cur     vecBatch // current block of partial bindings
	next    vecBatch // block under construction
	rows    []int32  // binding-independent candidate rows of a step; a merge's places (merge)
	rows2   []int32  // sorted-intersection scratch
	bits    bitset   // constant-filter bitset over the table's rows
	headIDs []uint32 // flat deduped answer store, k head-var ids per answer
	dedup   dedupSet
	order   []int32  // answer indexes in output order (sortCollected)
	keys    []uint64 // each answer's prefix key, for the length of one sort (sortCollected)
}

// oversized reports whether the arena's large buffers outgrew the retain
// limit and it should be dropped rather than pooled.
func (a *execArena) oversized() bool {
	total := cap(a.headIDs) + cap(a.rows) + cap(a.rows2) + cap(a.order) + 2*cap(a.keys) + cap(a.dedup.tab) + cap(a.dedup.spare) + 2*cap(a.bits.words)
	for _, c := range a.cur.cols {
		total += cap(c)
	}
	for _, c := range a.next.cols {
		total += cap(c)
	}
	return total > arenaRetainLimit
}

// resetAnswers empties the answer store and its dedup set, sized for about
// hint answers.
func (a *execArena) resetAnswers(hint int) {
	a.headIDs = a.headIDs[:0]
	a.dedup.reset(hint)
}

// getArena checks an arena out of the database pool.
func (db *Database) getArena() *execArena {
	if a, ok := db.arenas.Get().(*execArena); ok {
		return a
	}
	return &execArena{}
}

// putArena returns an arena to the pool unless it ballooned past the retain
// limit during the run.
func (db *Database) putArena(a *execArena) {
	if a.oversized() {
		return
	}
	db.arenas.Put(a)
}
