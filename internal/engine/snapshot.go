package engine

import (
	"iter"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
)

// Snapshot is an immutable point-in-time view of a database: a dictionary
// prefix, per-table column prefixes and index bases. Readers obtain one
// with a single atomic load and then evaluate entirely without locks; the
// writer builds the next version and publishes it with an atomic store.
// A snapshot never changes after publication, so it may be held across an
// arbitrarily long evaluation while inserts proceed.
type Snapshot struct {
	schema *schema.Schema
	relID  map[string]int // shared with the Database, immutable
	dict   dict           // id → string; every id in tables is < dict.len()
	tables []*tableSnap   // dense relation-id order

	// counts holds each table's row count, in relation-id order: what a
	// plan's memo record keeps of the snapshot it answered at (plan.go).
	// Tables are append-only, so a table's first n rows are the same in
	// every snapshot that holds n of them.
	counts []int

	// ref is the lazily materialized string-tuple state used by the
	// reference evaluator (EvalReference); see reference.go.
	refMu sync.Mutex
	ref   atomic.Pointer[refDB]
}

// tableSnap is one table's immutable view: column prefixes of length n, the
// index base covering rows [0, base.end), and the tail index covering the
// rows [base.end, n) the base does not — at most baseTailMax plus a quarter
// of the table. That split is what makes index maintenance incremental: an
// insert never invalidates the base, it only lengthens the tail, whose
// index each snapshot builds for itself (once per probed column, like a
// base column), until the writer rotates a fresh base at the next publish.
type tableSnap struct {
	rel  *schema.Relation
	cols [][]uint32 // per attribute, captured as col[:n:n]
	n    int
	base *rangeIndex // rows [0, base.end); nil until the first rotation
	tail *rangeIndex // rows [base.end, n); nil when the base covers them all
}

// rangeIndex is a set of lazily built per-column indexes over rows
// [first, end) of a table. A base ([0, end)) is shared by every snapshot
// published while it stays fresh, so an index column built by one reader
// serves all subsequent readers — across inserts — until the writer
// rotates the base; a tail belongs to one snapshot. Build sources are
// captured column windows, immutable by construction.
type rangeIndex struct {
	first, end int
	src        [][]uint32 // col[first:end:end] capture per column
	mu         sync.Mutex // serializes column builds
	cols       []atomic.Pointer[colIndex]
}

// baseTailMax is the fixed part of the rotation threshold: a base is rotated
// at publish once the tail exceeds baseTailMax rows and a quarter of the
// table, so a tail index stays cheap to build once per snapshot while
// rebuild work amortizes to O(1) per insert.
const baseTailMax = 64

func newRangeIndex(cols [][]uint32, first, end int) *rangeIndex {
	x := &rangeIndex{first: first, end: end, src: make([][]uint32, len(cols))}
	for i, c := range cols {
		x.src[i] = c[first:end:end]
	}
	x.cols = make([]atomic.Pointer[colIndex], len(cols))
	return x
}

// column returns the index of col, building it on first use. Builds read
// only the immutable src capture, so they are safe concurrently with the
// writer appending rows beyond end. A nil rangeIndex has a nil column.
func (x *rangeIndex) column(col int) *colIndex {
	if x == nil {
		return nil
	}
	if c := x.cols[col].Load(); c != nil {
		return c
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if c := x.cols[col].Load(); c != nil { // raced with another builder
		return c
	}
	c := buildColIndex(x.src[col], x.first)
	x.cols[col].Store(c)
	return c
}

// column returns the base's and the tail's index of col; between them they
// cover every row of the view, and either may be nil.
func (t *tableSnap) column(col int) (base, tail *colIndex) {
	return t.base.column(col), t.tail.column(col)
}

// colIndex is one column's index over a row range, in compressed sparse
// row form: the range's row numbers grouped by value in one array —
// ascending within a group, as intersectSorted needs — and an
// open-addressed directory from each distinct value to its group. Its size
// follows the rows and the distinct values, and it holds no pointer but its
// two slices.
type colIndex struct {
	rows  []int32
	dir   []group // a power of two, at most half full
	shift uint    // 32 − log2(len(dir)): a hash's top bits pick the entry
}

// group is one directory entry: the rows of value val are rows[start:end].
// end == 0 marks an empty entry (no group is empty).
type group struct {
	val, start, end uint32
}

// buildColIndex indexes src, the column's rows from row number first on, in
// O(len(src)): count each value's rows, lay the groups out by prefix sum,
// and place every row by its number in the table.
func buildColIndex(src []uint32, first int) *colIndex {
	x := &colIndex{}
	x.resize(8)
	distinct := 0
	// While counting, a group's end holds its size.
	for _, v := range src {
		g := x.entry(v)
		if g.end == 0 {
			if distinct++; distinct*2 > len(x.dir) {
				x.resize(2 * len(x.dir))
				g = x.entry(v)
			}
			g.val = v
		}
		g.end++
	}
	// Both bounds start at the group's end; placing the rows from the last
	// one back moves start down to the group's first row and leaves every
	// group ascending.
	var off uint32
	for i := range x.dir {
		if g := &x.dir[i]; g.end != 0 {
			off += g.end
			g.start, g.end = off, off
		}
	}
	x.rows = make([]int32, len(src))
	for r := len(src) - 1; r >= 0; r-- {
		g := x.entry(src[r])
		g.start--
		x.rows[g.start] = int32(first + r)
	}
	return x
}

// resize gives the directory n entries (a power of two) and places the
// groups again.
func (x *colIndex) resize(n int) {
	old := x.dir
	x.dir = make([]group, n)
	x.shift = uint(32 - bits.Len(uint(n-1)))
	for _, g := range old {
		if g.end != 0 {
			*x.entry(g.val) = g
		}
	}
}

// entry returns the directory entry of v: its group, or the empty entry
// where it would go.
func (x *colIndex) entry(v uint32) *group {
	mask := uint32(len(x.dir) - 1)
	for i := (v * 0x9e3779b1) >> x.shift; ; i = (i + 1) & mask {
		if g := &x.dir[i]; g.end == 0 || g.val == v {
			return g
		}
	}
}

// bucket returns the ascending rows of the range whose column holds v;
// none for a nil index.
func (x *colIndex) bucket(v uint32) []int32 {
	if x == nil {
		return nil
	}
	g := x.entry(v)
	return x.rows[g.start:g.end:g.end]
}

// Table is a read-only view of one relation inside a snapshot. It is valid
// indefinitely and unaffected by later inserts.
type Table struct {
	dict dict
	t    *tableSnap
}

// Relation returns the table's schema relation.
func (t *Table) Relation() *schema.Relation { return t.t.rel }

// Len returns the number of tuples in the view.
func (t *Table) Len() int { return t.t.n }

// allBatch is how many rows Table.All renders at a time.
const allBatch = 64

// All iterates the tuples in insertion order without materializing the
// table: tuples are built on demand from the dictionary-encoded columns,
// allBatch rows at a time, whose strings are copied out of the dictionary
// into one allocation and whose tuples are full-capacity windows of one
// backing array. The caller may retain or modify a yielded tuple; it aliases
// nothing another tuple can see.
func (t *Table) All() iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		w := len(t.t.cols)
		ids := make([]uint32, 0, min(allBatch, t.t.n)*w)
		for r0 := 0; r0 < t.t.n; r0 += allBatch {
			ids = ids[:0]
			for r := r0; r < min(r0+allBatch, t.t.n); r++ {
				for _, col := range t.t.cols {
					ids = append(ids, col[r])
				}
			}
			cells := make(Tuple, len(ids))
			t.dict.render(cells, ids)
			for c := 0; c < len(cells); c += w {
				if !yield(cells[c : c+w : c+w]) {
					return
				}
			}
		}
	}
}

// Schema returns the snapshot's schema.
func (s *Snapshot) Schema() *schema.Schema { return s.schema }

// Table returns the named table view, or nil for unknown relations.
func (s *Snapshot) Table(name string) *Table {
	id, ok := s.relID[name]
	if !ok {
		return nil
	}
	return &Table{dict: s.dict, t: s.tables[id]}
}
