package engine

import (
	"bytes"
	"math/bits"
	"slices"
	"time"

	"repro/internal/obs"
)

// This file is the order half of the dictionary encoding. Interning makes
// equality an integer compare; the rank table makes order one too:
// rank[id] is the position of string id in the byte order of every string
// the table covers (bytes.Compare over the dictionary's slots, the order
// strings.Compare gives), so two interned values compare as their ranks and
// sortCollected sorts answers without touching a string.
//
// The table belongs to the Database, not to a snapshot, and is built by
// readers, never by writers: the first evaluation that has to sort builds
// it for its snapshot's dictionary, and an evaluation whose snapshot
// interned more strings than the table covers extends it — sorts the new
// ids, merges them into the sorted id list by binary search, copies rank
// and refills the positions that moved — and publishes the longer table.
// Insert and Load never touch it, so however many publications pass
// between two sorting evaluations, they cost one extension. A table that
// covers a longer prefix of the dictionary serves any older pinned
// snapshot as is: the dictionary is append-only, so the older
// snapshot's ids are a subset of the covered ones, and inserting further
// strings between two of them moves their ranks but never their relative
// order — which is all a sort reads.
//
// Ordering by raw id would be cheaper still and wrong: ids follow
// first-intern order, which differs between a primary and a follower that
// bootstrapped from a checkpoint, so the two would return one answer in
// two orders.

// rankTable is one version of the table. rank[id] is the position of
// string id among the strings of ids [0, len(rank)); it is immutable once
// published, and it is all a reader touches. sorted is rank's inverse — the
// covered ids in lexicographic order of their strings — and is the
// extender's working state: successive versions share its backing array,
// the next extension merges into it in place, and only the holder of
// rankMu, looking at the latest version, may read it.
type rankTable struct {
	rank   []uint32
	sorted []uint32
}

var metricRankExtend = obs.Default.Histogram("disclosure_engine_rank_extend_seconds",
	"Time to build or extend the engine's order-preserving rank table (one observation per extension; the cost is O(distinct strings)).",
	obs.LatencyBuckets)

// ranksFor returns a rank slice covering every id of snap, extending the
// database's table first when snap interned strings it does not cover yet.
func (db *Database) ranksFor(snap *Snapshot) []uint32 {
	if t := db.ranks.Load(); t != nil && len(t.rank) >= snap.dict.len() {
		return t.rank
	}
	db.rankMu.Lock()
	defer db.rankMu.Unlock()
	t := db.ranks.Load()
	if t != nil && len(t.rank) >= snap.dict.len() { // raced with another extender
		return t.rank
	}
	t0 := time.Now()
	t = extendRanks(t, snap.dict)
	db.ranks.Store(t)
	metricRankExtend.Observe(time.Since(t0).Seconds())
	return t.rank
}

// extendRanks returns a table covering d, reusing the order old (nil or
// covering a prefix of d) already established, and takes over old's sorted
// list. Interned strings are distinct, so the order is total and no
// comparison ties.
func extendRanks(old *rankTable, d dict) *rankTable {
	var sorted, oldRank []uint32
	if old != nil {
		sorted, oldRank = old.sorted, old.rank
	}
	n := len(sorted)
	fresh := make([]uint32, d.len()-n)
	for i := range fresh {
		fresh[i] = uint32(n + i)
	}
	slices.SortFunc(fresh, func(a, b uint32) int { return bytes.Compare(d.bytes(a), d.bytes(b)) })

	// Merge in place, from the back: each new id, largest first, lands
	// behind the run of covered ids that sort before it, found by binary
	// search over what is left of them, and the covered ids behind it move
	// up past the new ids still to come. An extension by m ids compares
	// O(m log n) strings, moves only the ids behind the smallest new one,
	// and grows the list with append's amortised capacity.
	sorted = slices.Grow(sorted, len(fresh))[:d.len()]
	left := n // sorted[:left] are the covered ids not yet passed
	for j := len(fresh) - 1; j >= 0; j-- {
		id := fresh[j]
		at, _ := slices.BinarySearchFunc(sorted[:left], d.bytes(id), func(h uint32, s []byte) int {
			return bytes.Compare(d.bytes(h), s)
		})
		copy(sorted[at+j+1:], sorted[at:left])
		sorted[at+j] = id
		left = at
	}

	// Readers may hold the old ranks, so the new ones are a copy; only the
	// positions from the smallest new id on differ from it.
	rank := make([]uint32, len(sorted))
	copy(rank, oldRank)
	for pos := left; pos < len(sorted); pos++ {
		rank[sorted[pos]] = uint32(pos)
	}
	return &rankTable{rank: rank, sorted: sorted}
}

// sortAnswers puts ord — the indexes of two or more distinct answers, k
// head-variable ids each, stored flat in ids — into the lexicographic order
// of the strings behind those ids, reading only their ranks.
func sortAnswers(ord []uint64, ids, rank []uint32, k int) {
	// Two distinct answers name at least two ids, so neither width is zero.
	rbits := uint(bits.Len(uint(len(rank) - 1)))
	ibits := uint(bits.Len(uint(len(ord) - 1)))
	sortPacked(ord, ids, rank, k, 0, rbits, ibits)
	for i, o := range ord {
		ord[i] = o & (1<<ibits - 1)
	}
}

// sortPacked orders ord on head columns col and after. Each word of ord
// holds an answer index in its low ibits; a pass writes the ranks of as many
// head columns as fit, rbits each, above it, so that sorting the words as
// plain integers orders the answers on those columns, and then orders each
// run of answers that tie on all of them by the columns after. Ranks are
// uint32 and answer indexes int32, so one column always fits.
func sortPacked(ord []uint64, ids, rank []uint32, k, col int, rbits, ibits uint) {
	end := min(k, col+int((64-ibits)/rbits))
	idx := uint64(1)<<ibits - 1
	for i, o := range ord {
		at := int(o&idx) * k
		var key uint64
		for c := col; c < end; c++ {
			key = key<<rbits | uint64(rank[ids[at+c]])
		}
		ord[i] = key<<ibits | o&idx
	}
	slices.Sort(ord)
	if end == k {
		return
	}
	for lo := 0; lo < len(ord); {
		hi := lo + 1
		for hi < len(ord) && ord[hi]>>ibits == ord[lo]>>ibits {
			hi++
		}
		if hi-lo > 1 {
			sortPacked(ord[lo:hi], ids, rank, k, end, rbits, ibits)
		}
		lo = hi
	}
}
