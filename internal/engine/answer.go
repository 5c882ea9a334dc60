package engine

// Answer is the result of one planned evaluation, held as the interned ids
// the executor computed: one pointer-free block of head-variable ids in
// answer order (the lexicographic order of the rendered rows), the
// dictionary of the snapshot the evaluation was pinned to, and the plan's
// head, whose constant positions carry their strings. Strings are produced
// by whoever needs them — Cell for an encoder writing straight to a buffer,
// Rows for a library caller — so an answer nobody renders costs one
// allocation the collector never walks. An Answer is immutable and may be
// shared (isomorphic queries of one batch share theirs); the zero Answer has
// no rows. It pins its snapshot's dictionary, not its tables.
type Answer struct {
	ids  []uint32 // n rows of k ids
	strs []string
	head []headOp
	n, k int
}

// Len returns the number of rows: one, of width zero, for a satisfied
// boolean query.
func (a *Answer) Len() int { return a.n }

// Width returns the number of values in each row.
func (a *Answer) Width() int { return len(a.head) }

// Cell returns value j of row i.
func (a *Answer) Cell(i, j int) string {
	h := &a.head[j]
	if h.isConst {
		return h.val
	}
	return a.strs[a.ids[i*a.k+int(h.col)]]
}

// Rows renders the answer as caller-owned tuples (one backing array,
// full-capacity subslices so an append never bleeds into a neighbor), nil
// when there are none.
func (a *Answer) Rows() []Tuple {
	if a.n == 0 {
		return nil
	}
	w := len(a.head)
	out := make([]Tuple, a.n)
	backing := make([]string, a.n*w)
	for i := range out {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for j := range row {
			row[j] = a.Cell(i, j)
		}
		out[i] = row
	}
	return out
}
