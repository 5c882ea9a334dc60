// Package engine is a small in-memory relational engine with set semantics,
// built as three layers:
//
//   - Storage: tables are dictionary-encoded and columnar — every constant
//     string is interned to a dense uint32 once, rows live in per-attribute
//     uint32 columns, an order-preserving rank per id (built lazily by
//     readers) lets answers sort without comparing strings, and hash
//     indexes over the interned ids are maintained incrementally (an
//     insert lengthens a short scan tail instead of invalidating the
//     index; the base is rotated, amortized O(1), when the tail outgrows a
//     quarter of the table).
//
//   - Plans: a conjunctive query is compiled once — join order fixed by
//     static selectivity, variables resolved to integer slots, index probes
//     chosen — and memoized in a sharded plan cache keyed by the query's
//     canonical fingerprint (internal/cq), so isomorphic queries share one
//     plan exactly as they share one label in the labeling cache.
//
//   - Snapshots: the database publishes an immutable Snapshot through an
//     atomic pointer. Readers (Eval, EvalAt, Table) load it once and run
//     entirely lock-free; the writer (Insert, Load) builds the next version
//     under a private mutex and publishes it atomically. A reader therefore
//     sees a consistent prefix of the insertion history, never a torn state.
//
// Concurrency contract: every method of Database is safe for concurrent
// use. Writes serialize with each other; reads never block and never take
// the write lock (the only reader-side synchronization is a one-time
// interner lookup per plan constant, memoized in the plan, and the mutex a
// sorting reader takes to extend the rank table when its snapshot interned
// strings the table does not cover yet — see rank.go).
//
// The engine is the substrate under the example applications (the reference
// monitor guards a live database) and under the semantic property tests,
// which execute rewriting witnesses against random databases to validate
// the labeler's rewritability decisions. The pre-plan backtracking
// evaluator is retained as EvalReference, the semantic ground truth that
// the differential tests and benchmarks compare against.
package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/schema"
)

// Tuple is a row of constants.
type Tuple []string

// key renders the tuple as a map key: every value behind its length, so no
// byte a value holds can move the boundary between two values.
func (t Tuple) key() string {
	b := make([]byte, 0, 64)
	for _, v := range t {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return string(b)
}

// tableCore is the writer-side mutable state of one table. All fields are
// guarded by Database.mu; readers only ever see the immutable captures
// published in snapshots.
type tableCore struct {
	rel  *schema.Relation
	cols [][]uint32
	rows rowSet     // the rows of cols, for set semantics
	base *baseIndex // current index base, shared with snapshots
}

// rowSet is the writer's set of one table's rows: an open-addressed table
// of row numbers, hashed and compared through the id columns the rows
// already live in — the columnar twin of the arena's dedupSet. It costs
// about six bytes a row; a map keyed by a packed copy of each row's ids
// costs about eighty, a fifth of a loaded daemon's heap.
type rowSet struct {
	tab []int32 // row number + 1; 0 = empty
}

// add reports whether ids is a row cols does not hold yet, recording it as
// row number n — cols' current length, where the caller appends it.
func (s *rowSet) add(cols [][]uint32, n int, ids []uint32) bool {
	if (n+1)*4 > len(s.tab)*3 {
		// Double, and place the resident rows again.
		old := s.tab
		s.tab = make([]int32, max(16, 2*len(old)))
		row := make([]uint32, len(cols))
		for _, e := range old {
			if e != 0 {
				for c, col := range cols {
					row[c] = col[e-1]
				}
				s.tab[s.slot(cols, row)] = e
			}
		}
	}
	i := s.slot(cols, ids)
	if s.tab[i] != 0 {
		return false
	}
	s.tab[i] = int32(n) + 1
	return true
}

// slot returns where ids is, or where it would go: the first slot on its
// probe sequence that is empty or holds a row equal to it.
func (s *rowSet) slot(cols [][]uint32, ids []uint32) uint64 {
	mask := uint64(len(s.tab) - 1)
probe:
	for i := hashRow(ids) & mask; ; i = (i + 1) & mask {
		if e := s.tab[i]; e != 0 {
			for c, col := range cols {
				if col[e-1] != ids[c] {
					continue probe
				}
			}
		}
		return i
	}
}

// Database is a set of tables keyed by relation name. It is safe for
// concurrent use: see the package comment for the snapshot contract.
type Database struct {
	mu     sync.Mutex // serializes writers (Insert, Load)
	schema *schema.Schema
	relID  map[string]int
	cores  []*tableCore
	in     *interner
	snap   atomic.Pointer[Snapshot]
	plans  *planCache // fixed at construction

	// ranks is the order-preserving rank table over the interned strings,
	// built and extended by sorting readers under rankMu; see rank.go.
	rankMu sync.Mutex
	ranks  atomic.Pointer[rankTable]

	// arenas pools execution scratch (execArena) so steady-state evaluation
	// allocates nothing but its answer; see arena.go.
	arenas sync.Pool
}

// NewDatabase creates an empty database over the schema.
func NewDatabase(s *schema.Schema) *Database {
	rels := s.Relations()
	db := &Database{
		schema: s,
		relID:  make(map[string]int, len(rels)),
		cores:  make([]*tableCore, len(rels)),
		in:     newInterner(),
		plans:  newPlanCache(DefaultPlanCacheCapacity),
	}
	for i, r := range rels {
		db.relID[r.Name()] = i
		db.cores[i] = &tableCore{rel: r, cols: make([][]uint32, r.Arity())}
	}
	db.snap.Store(db.buildSnapshotLocked(nil))
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Schema { return db.schema }

// Snapshot returns the current published snapshot. The result is immutable:
// inserts committed after the call are not visible through it.
func (db *Database) Snapshot() *Snapshot { return db.snap.Load() }

// Table returns a read-only view of the named table in the current
// snapshot, or nil for unknown relations.
func (db *Database) Table(name string) *Table { return db.Snapshot().Table(name) }

// Insert adds a tuple to the named relation, ignoring exact duplicates
// (set semantics), and publishes a snapshot containing it. It returns an
// error for unknown relations or arity mismatches. For more than a handful
// of rows prefer Load, which publishes once per batch.
func (db *Database) Insert(rel string, values ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	changed, err := db.insertLocked(rel, values...)
	if err != nil {
		return err
	}
	if changed >= 0 {
		db.publishLocked(map[int]bool{changed: true})
	}
	return nil
}

// MustInsert is like Insert but panics on error; for statically-known data
// in examples and tests.
func (db *Database) MustInsert(rel string, values ...string) {
	if err := db.Insert(rel, values...); err != nil {
		panic(err)
	}
}

// insertLocked appends the tuple to its table core and returns the relation
// id, or -1 for a duplicate. Callers hold db.mu.
func (db *Database) insertLocked(rel string, values ...string) (int, error) {
	id, ok := db.relID[rel]
	if !ok {
		return -1, fmt.Errorf("engine: unknown relation %q", rel)
	}
	t := db.cores[id]
	if len(values) != t.rel.Arity() {
		return -1, fmt.Errorf("engine: relation %q has arity %d, got %d values", rel, t.rel.Arity(), len(values))
	}
	ids := make([]uint32, len(values))
	for i, v := range values {
		ids[i] = db.in.intern(v)
	}
	n := 0
	if len(ids) > 0 {
		n = len(t.cols[0])
	}
	if !t.rows.add(t.cols, n, ids) {
		return -1, nil
	}
	for i, v := range ids {
		t.cols[i] = append(t.cols[i], v)
	}
	return id, nil
}

// Loader inserts rows inside a Load batch. It must not escape the callback,
// and the callback must not call back into the owning Database's write
// methods (Insert, Load) — the batch already holds the write lock.
type Loader struct {
	db     *Database
	dirty  map[int]bool
	record bool
	rows   []Row
}

// Row is one inserted tuple in external string form, as recorded by
// LoadRecorded for write-ahead logging.
type Row struct {
	// Rel is the relation name.
	Rel string
	// Values are the tuple's constants, in attribute order.
	Values []string
}

// Insert adds a tuple to the named relation within the batch; duplicates
// are ignored as in Database.Insert.
func (ld *Loader) Insert(rel string, values ...string) error {
	id, err := ld.db.insertLocked(rel, values...)
	if err != nil {
		return err
	}
	if id >= 0 {
		ld.dirty[id] = true
		if ld.record {
			ld.rows = append(ld.rows, Row{Rel: rel, Values: append([]string(nil), values...)})
		}
	}
	return nil
}

// MustInsert is like Insert but panics on error.
func (ld *Loader) MustInsert(rel string, values ...string) {
	if err := ld.Insert(rel, values...); err != nil {
		panic(err)
	}
}

// Load runs fn with a batch Loader and publishes a single snapshot
// afterwards, so bulk loading pays one publication instead of one per row.
// It returns fn's error; rows inserted before the error are still
// published (Load is not transactional).
func (db *Database) Load(fn func(ld *Loader) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ld := &Loader{db: db, dirty: make(map[int]bool)}
	err := fn(ld)
	if len(ld.dirty) > 0 {
		db.publishLocked(ld.dirty)
	}
	return err
}

// LoadRecorded is Load with a write-ahead hook: after fn returns, commit
// runs with every row the batch actually inserted (duplicates excluded),
// before the batch's snapshot is published — the ordering a write-ahead
// log needs to make an acknowledged batch durable. A commit error
// suppresses the publication and is returned in place of fn's error; the
// table cores already hold the rows at that point (the engine cannot roll
// a batch back), so a failed commit leaves the database ahead of its log
// and callers must treat it as fatal for the handle. When the batch
// inserted nothing, commit is not called and nothing is published.
func (db *Database) LoadRecorded(fn func(ld *Loader) error, commit func(rows []Row) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ld := &Loader{db: db, dirty: make(map[int]bool), record: true}
	err := fn(ld)
	if len(ld.rows) > 0 {
		if cerr := commit(ld.rows); cerr != nil {
			return cerr
		}
		db.publishLocked(ld.dirty)
	}
	return err
}

// publishLocked builds and atomically publishes the next snapshot, reusing
// the previous snapshot's table views for untouched relations (dirty nil
// means rebuild everything). Callers hold db.mu.
func (db *Database) publishLocked(dirty map[int]bool) {
	db.snap.Store(db.buildSnapshotLocked(dirty))
}

func (db *Database) buildSnapshotLocked(dirty map[int]bool) *Snapshot {
	prev := db.snap.Load()
	s := &Snapshot{
		schema: db.schema,
		relID:  db.relID,
		strs:   db.in.snapshotStrs(),
		tables: make([]*tableSnap, len(db.cores)),
	}
	for i, core := range db.cores {
		if prev != nil && dirty != nil && !dirty[i] {
			s.tables[i] = prev.tables[i]
			continue
		}
		n := 0
		if core.rel.Arity() > 0 {
			n = len(core.cols[0])
		}
		// Rotate the index base once the unindexed tail outgrows both the
		// fixed bound and a quarter of the table. The old base stays with
		// older snapshots; the new one is built lazily by the next prober.
		if tail := n - baseN0(core.base); tail > baseTailMax && tail*4 > n {
			core.base = newBaseIndex(core.cols, n)
		}
		ts := &tableSnap{rel: core.rel, cols: make([][]uint32, len(core.cols)), n: n, base: core.base}
		for c, col := range core.cols {
			ts.cols[c] = col[:n:n]
		}
		s.tables[i] = ts
	}
	return s
}

func baseN0(b *baseIndex) int {
	if b == nil {
		return 0
	}
	return b.n0
}

// Eval evaluates a conjunctive query against the current snapshot and
// returns the set of answer tuples (head bindings), sorted
// lexicographically. A boolean query returns a single empty tuple when
// satisfied and no tuples otherwise. Evaluation is lock-free: it compiles
// (or recalls from the plan cache) a plan for the query's canonical form
// and runs it against an immutable snapshot.
func (db *Database) Eval(q *cq.Query) ([]Tuple, error) {
	return db.EvalAt(db.Snapshot(), q)
}

// EvalAt evaluates q against a specific snapshot of this database, so a
// caller can pin several evaluations to one consistent state while inserts
// proceed. The snapshot must come from this database: plans resolve
// constants through the owning interner.
func (db *Database) EvalAt(snap *Snapshot, q *cq.Query) ([]Tuple, error) {
	ans, err := db.EvalCanonicalAt(snap, cq.PrepareQuery(q))
	return ans.Rows(), err
}

// EvalCanonicalAt is the engine's one planned evaluation (Eval and EvalAt
// render its Answer), of a prepared query, as interned ids: a submission
// carries the canonical key and fingerprint it was prepared with and shares
// them between the labeling cache and the plan cache (System.SubmitBatch
// evaluates a whole batch this way, pinned to one snapshot), and its answer
// stays ids until an edge needs strings. With the plan cached, the parsed
// query is never touched.
func (db *Database) EvalCanonicalAt(snap *Snapshot, pq *cq.Prepared) (Answer, error) {
	p, err := db.plans.get(db, pq)
	if err != nil {
		return Answer{}, err
	}
	return db.evalPlan(p, snap), nil
}

// sortTuples orders answers lexicographically element-wise (all tuples in
// one result set share an arity, so this matches the ordering of the
// rendered keys).
func sortTuples(out []Tuple) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Materialize evaluates each view against the database and returns a new
// database whose relations are the views (named after the views, with
// synthetic attribute names a0, a1, ...). This is how a rewriting — a query
// over view names — is executed: materialize the views, then Eval the
// rewriting against the result.
func Materialize(db *Database, views ...*cq.Query) (*Database, error) {
	rels := make([]*schema.Relation, 0, len(views))
	results := make(map[string][]Tuple, len(views))
	for _, v := range views {
		rows, err := db.Eval(v)
		if err != nil {
			return nil, fmt.Errorf("engine: materializing %s: %w", v.Name, err)
		}
		attrs := make([]string, len(v.Head))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		if len(attrs) == 0 {
			// Boolean views materialize as a unary relation holding a
			// single marker tuple when true.
			attrs = []string{"present"}
			if len(rows) > 0 {
				rows = []Tuple{{"true"}}
			}
		}
		r, err := schema.NewRelation(v.Name, attrs...)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
		results[v.Name] = rows
	}
	s, err := schema.New(rels...)
	if err != nil {
		return nil, err
	}
	out := NewDatabase(s)
	err = out.Load(func(ld *Loader) error {
		for name, rows := range results {
			for _, row := range rows {
				if err := ld.Insert(name, row...); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EqualResults reports whether two result sets are equal as sets (both are
// sorted by Eval).
func EqualResults(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key() != b[i].key() {
			return false
		}
	}
	return true
}
