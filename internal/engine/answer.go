package engine

import "sync/atomic"

// Answer is the result of one planned evaluation, held as the interned ids
// the executor computed: one pointer-free block of head-variable ids in
// answer order (the lexicographic order of the rendered rows), the
// dictionary view of the snapshot the evaluation was pinned to, and the
// plan's head, whose constant positions carry their bytes. Strings are
// produced by whoever needs them — CellBytes for an encoder copying a
// value's bytes straight to a buffer, Rows for a library caller — so an
// answer nobody renders costs one block the collector never walks. An
// Answer is immutable and shared: isomorphic queries of one batch share
// theirs, and so does every later evaluation of the same canonical form —
// by any principal whose submission was admitted — while the tables its
// plan reads stay unchanged (compiledPlan.memo). The zero Answer has no
// rows. It pins its snapshot's dictionary, not its tables.
type Answer struct {
	blk  *answerBlock // nil for no rows
	dict dict
	head []headOp
}

// answerBlock is an answer's rows: n rows of k head-variable ids. A plan's
// memo record holds the block of its last execution, under its database's
// memo budget, and every Answer of it holds it too.
type answerBlock struct {
	ids  []uint32
	n, k int
	// size is the ids' measure (Answer.Size), taken on first request: an
	// id's string never changes, so it holds for every snapshot.
	size atomic.Pointer[blockSize]
}

// blockSize measures a block's ids: their strings' bytes, and whether every
// one of them is plain.
type blockSize struct {
	bytes int
	plain bool
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

// CellBytes returns value j of row i as bytes that alias the dictionary —
// the caller must not modify them — and whether every one of them is plain
// (PlainByte), recorded when the value was interned or its plan compiled.
func (a *Answer) CellBytes(i, j int) (b []byte, plain bool) {
	h := &a.head[j]
	if h.isConst {
		return h.raw, h.plain
	}
	return a.dict.at(a.blk.ids[i*a.blk.k+int(h.col)])
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
			consts += len(h.raw)
			plain = plain && h.plain
		}
	}
	m := a.blk.size.Load()
	if m == nil {
		m = a.blk.measure(a.dict)
		a.blk.size.Store(m)
	}
	return m.bytes + consts*a.blk.n, plain && m.plain
}

// measure reads the block's measure off the slots of d.
func (b *answerBlock) measure(d dict) *blockSize {
	m := &blockSize{plain: true}
	for _, id := range b.ids {
		w := d.slots[id].word
		m.bytes += int(w & lenMask)
		m.plain = m.plain && w&plainBit != 0
	}
	return m
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
			backing[j] = string(h.raw) // rendered once, shared by every row
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
