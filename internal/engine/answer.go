package engine

import (
	"bytes"
	"slices"
	"sync/atomic"
)

// Answer is the result of one planned evaluation, held as the interned ids
// the executor computed: one pointer-free block of head-variable ids in
// answer order (the lexicographic order of the rendered rows), the
// dictionary view of the snapshot the evaluation was pinned to, and the
// plan's head, whose constant positions carry their bytes. Strings are
// produced by whoever needs them — AppendRow for an encoder copying a row's
// bytes straight to a buffer, Rows for a library caller — so an answer
// nobody renders costs one block the collector never walks. An
// Answer is immutable and shared: once the canonical form's plan is
// resident, isomorphic queries of one batch share theirs, and so does every
// later evaluation of the form — by any principal whose submission was
// admitted — while the tables its plan reads stay unchanged
// (compiledPlan.memo); when they grow, the next answer is a new block that
// merges this one's rows with the new ones. The plan cache keeps a plan on
// its form's second miss, so the first batch of a never-seen form's
// isomorphs executes it twice. The zero Answer has no rows. It pins its snapshot's dictionary, not its
// tables.
type Answer struct {
	blk  *answerBlock // nil for no rows
	dict dict
	head []headOp
}

// answerBlock is an answer's rows: n rows of k head-variable ids. A plan's
// memo record holds the block of its last answer, under its database's
// memo budget, and every Answer of it holds it too.
type answerBlock struct {
	ids  []uint32
	n, k int
	// size is the ids' measure (Answer.Size) as a sizeWord, 0 until taken:
	// on first request, or by the merge that extends a measured block. An
	// id's string never changes, so it holds for every snapshot.
	size atomic.Uint64
}

// sizeWord packs a measure of ids — their strings' bytes, and whether every
// one of them is plain — above a set bit, which tells a measure taken from
// none.
func sizeWord(bytes int, plain bool) uint64 {
	w := uint64(bytes)<<2 | 1
	if plain {
		w |= 2
	}
	return w
}

// measure adds the measure of ids, read off the slots of d, to the sizeWord
// w.
func measure(d dict, ids []uint32, w uint64) uint64 {
	bytes, plain := int(w>>2), w&2 != 0
	for _, id := range ids {
		sw := d.slots[id].word
		bytes += int(sw & lenMask)
		plain = plain && sw&plainBit != 0
	}
	return sizeWord(bytes, plain)
}

// unitRow is the one row of a head without variables — a satisfied boolean
// query, or a head of constants only — shared by every such answer.
var unitRow = &answerBlock{n: 1}

// Len returns the number of rows: one, of width zero, for a satisfied
// boolean query.
func (a *Answer) Len() int {
	if a.blk == nil {
		return 0
	}
	return a.blk.n
}

// Width returns the number of values in each row.
func (a *Answer) Width() int { return len(a.head) }

// rowCellRoom is the room AppendRow keeps ahead for each cell still to
// come: a comma, two quotes and a slot's inline bytes.
const rowCellRoom = 3 + slotInline

// AppendRow appends row i to dst as a JSON array of strings, each cell's
// bytes copied out of the dictionary: a plain cell (PlainByte) is copied
// between quotes unexamined, and every other one is handed to escape, which
// appends it as a JSON string. It reads each id's slot once, and copies an
// inline cell as the slot's whole fixed-size word into room reserved ahead
// before cutting dst back to the cell's length; the room is reserved again
// after any cell appended another way, which can use it up. A head of
// variables only, the common shape, starts on appendInline, and the loop
// below takes the row from its first cell that is not plain and inline.
func (a *Answer) AppendRow(dst []byte, i int, escape func(dst, b []byte) []byte) []byte {
	w, k := len(a.head), a.blk.k
	row := a.blk.ids[i*k : i*k+k]
	j := 0
	if k == w {
		if dst, j = appendInline(dst, a.dict.slots, row); j == w {
			return append(dst, ']')
		}
	} else {
		dst = slices.Grow(dst, 2+w*rowCellRoom)
		dst = append(dst, '[')
	}
	for ; j < w; j++ {
		h := &a.head[j]
		if j > 0 {
			dst = append(dst, ',')
		}
		if !h.isConst {
			s := &a.dict.slots[row[h.col]]
			// A plain word is plainBit plus the length, so this one compare
			// picks the plain inline cells: any other word wraps past it.
			if n := s.word - plainBit; n <= slotInline {
				l := len(dst)
				dst = dst[:l+2+slotInline]
				dst[l] = '"'
				*(*[slotInline]byte)(dst[l+1:]) = s.bytes
				dst[l+1+int(n)] = '"'
				dst = dst[:l+2+int(n)]
				continue
			}
			if b, plain := a.dict.slotBytes(s); plain {
				dst = append(dst, '"')
				dst = append(dst, b...)
				dst = append(dst, '"')
			} else {
				dst = escape(dst, b)
			}
		} else if h.plain {
			dst = append(dst, h.quoted...)
		} else {
			dst = escape(dst, h.value())
		}
		dst = slices.Grow(dst, 1+(w-1-j)*rowCellRoom)
	}
	return append(dst, ']')
}

// appendInline opens the row of ids row — the cells of a head whose every
// position is a variable — and appends its leading cells that are plain and
// inline, returning how many it appended. It reserves room for the whole
// row once and writes into that room by index: each cell is one slot load,
// a separator, an opening quote, the slot's twelve bytes and a closing quote
// over the first byte past the string. dst keeps room for the rest of the
// row's cells, as AppendRow's loop expects.
func appendInline(dst []byte, slots []strSlot, row []uint32) ([]byte, int) {
	dst = slices.Grow(dst, 2+len(row)*rowCellRoom)
	buf, l := dst[:cap(dst)], len(dst)
	sep, j := byte('['), 0
	for ; j < len(row); j++ {
		s := &slots[row[j]]
		n := s.word - plainBit // as in AppendRow's loop
		if n > slotInline {
			break
		}
		c := (*[rowCellRoom]byte)(buf[l : l+rowCellRoom : l+rowCellRoom])
		c[0], c[1] = sep, '"'
		*(*[slotInline]byte)(c[2:]) = s.bytes
		c[2+n] = '"'
		l += 3 + int(n)
		sep = ','
	}
	if j == 0 {
		buf[l] = '['
		l++
	}
	return buf[:l], j
}

// Size measures the answer's cells for an encoder that states its output's
// length before writing it: bytes is the byte count of every cell of every
// row, and plain whether every cell is plain (PlainByte). The ids' share is
// read from the dictionary's length words once per block and kept on it.
func (a *Answer) Size() (bytes int, plain bool) {
	if a.Len() == 0 {
		return 0, true
	}
	consts, plain := 0, true // the head constants, in every row
	for _, h := range a.head {
		if h.isConst {
			consts += len(h.value())
			plain = plain && h.plain
		}
	}
	w := a.blk.size.Load()
	if w == 0 {
		w = measure(a.dict, a.blk.ids, sizeWord(0, true))
		a.blk.size.Store(w)
	}
	return int(w>>2) + consts*a.blk.n, plain && w&2 != 0
}

// merge returns the block of old's rows (nil for none) and of the n answers
// a.order lists in answer order, k ids each in a.headIDs, each at its place
// in the byte order of their strings in d. An answer old already holds is
// dropped, and old is returned as is when it holds them all. old's rows keep
// their order at d: the dictionary is append-only, so d holds every string
// they name. The merged block allocates what an executed one does,
// and when old's measure was taken, carries it on, plus the added ids', so
// the block is never measured again.
func merge(old *answerBlock, d dict, a *execArena, n, k int) *answerBlock {
	var oldIDs []uint32
	nOld := 0
	if old != nil {
		oldIDs, nOld = old.ids, old.n
	}
	// Place each answer by binary search over the old rows from the last
	// one's place on — both lists ascend — and keep, with its place in
	// a.rows, each one old does not hold.
	kept := a.order[:0]
	a.rows = a.rows[:0]
	lo := 0
	for _, o := range a.order[:n] {
		row := a.headIDs[int(o)*k : int(o)*k+k]
		for hi := nOld; lo < hi; {
			mid := int(uint(lo+hi) >> 1)
			if compareRows(d, oldIDs[mid*k:mid*k+k], row) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < nOld && equalRow(oldIDs[lo*k:], row, k) {
			continue
		}
		kept = append(kept, o)
		a.rows = append(a.rows, int32(lo))
	}
	if len(kept) == 0 {
		return old
	}
	blk := &answerBlock{ids: make([]uint32, (nOld+len(kept))*k), n: nOld + len(kept), k: k}
	w, prev := 0, 0
	size := sizeWord(0, true)
	if old != nil {
		size = old.size.Load()
	}
	for j, o := range kept {
		at := int(a.rows[j])
		row := a.headIDs[int(o)*k : int(o)*k+k]
		w += copy(blk.ids[w:], oldIDs[prev*k:at*k])
		w += copy(blk.ids[w:], row)
		prev = at
		if size != 0 {
			size = measure(d, row, size)
		}
	}
	copy(blk.ids[w:], oldIDs[prev*k:])
	blk.size.Store(size)
	return blk
}

// compareRows compares two rows of ids in the byte order of the strings
// behind them in d — the order strings.Compare gives. Interned strings are
// distinct, so only the first pair of ids that differ reads bytes.
func compareRows(d dict, x, y []uint32) int {
	for i, id := range x {
		if id != y[i] {
			return bytes.Compare(d.bytes(id), d.bytes(y[i]))
		}
	}
	return 0
}

// Rows renders the answer as caller-owned tuples (one backing array,
// full-capacity subslices so an append never bleeds into a neighbor), nil
// when there are none. The strings of the variable cells share one
// allocation and a head constant is rendered once, so rendering costs the
// same handful of allocations however large the answer.
func (a *Answer) Rows() []Tuple {
	if a.Len() == 0 {
		return nil
	}
	n, k, w := a.blk.n, a.blk.k, len(a.head)
	out := make([]Tuple, n)
	backing := make(Tuple, n*w)
	// The variable cells, row by row: the tuples themselves when the head
	// has no constant to interleave.
	vars := backing
	if k < w {
		vars = make(Tuple, len(a.blk.ids))
	}
	a.dict.render(vars, a.blk.ids)
	for j, h := range a.head {
		if h.isConst {
			backing[j] = string(h.value()) // rendered once, shared by every row
		}
	}
	for i := range out {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		if k < w {
			for j, h := range a.head {
				if h.isConst {
					row[j] = backing[j]
				} else {
					row[j] = vars[i*k+int(h.col)]
				}
			}
		}
		out[i] = row
	}
	return out
}
