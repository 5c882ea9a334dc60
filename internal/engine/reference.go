package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
)

// This file preserves the pre-plan evaluator — string tuples, map bindings,
// a runtime greedy join order and lazily built per-column hash indexes —
// exactly as the seed engine ran it. It serves two purposes: it is the
// semantic ground truth that the differential tests execute against the
// plan executor on randomized databases and queries, and it is the
// "pre-refactor engine" baseline of the executor's benchmarks
// (BenchmarkEngineEval/reference, BenchmarkEvalLargeAnswer/reference).

// refDB is the seed-style materialization of one snapshot: string rows per
// table plus the seed's lazily built index sets. It is cached on the
// snapshot, so repeated reference evaluations share rows and indexes just
// as the seed's long-lived tables did.
type refDB struct {
	tables map[string]*refTable
}

type refTable struct {
	rel     int // arity, for error checks
	rows    []Tuple
	idxMu   sync.Mutex
	indexes atomic.Pointer[map[int]map[string][]int]
}

// refState materializes (once per snapshot) the reference evaluator's view.
func (s *Snapshot) refState() *refDB {
	if r := s.ref.Load(); r != nil {
		return r
	}
	s.refMu.Lock()
	defer s.refMu.Unlock()
	if r := s.ref.Load(); r != nil {
		return r
	}
	r := &refDB{tables: make(map[string]*refTable, len(s.tables))}
	for _, ts := range s.tables {
		view := Table{dict: s.dict, t: ts}
		r.tables[ts.rel.Name()] = &refTable{rel: len(ts.cols), rows: slices.AppendSeq(make([]Tuple, 0, ts.n), view.All())}
	}
	s.ref.Store(r)
	return r
}

// index returns (building if needed) the hash index for a column, with the
// seed's publication discipline: the index set is an immutable map behind
// an atomic pointer, extended by copy under idxMu.
func (t *refTable) index(col int) map[string][]int {
	if m := t.indexes.Load(); m != nil {
		if idx, ok := (*m)[col]; ok {
			return idx
		}
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	cur := t.indexes.Load()
	if cur != nil {
		if idx, ok := (*cur)[col]; ok { // raced with another builder
			return idx
		}
	}
	idx := make(map[string][]int)
	for i, row := range t.rows {
		idx[row[col]] = append(idx[row[col]], i)
	}
	next := make(map[int]map[string][]int, 4)
	if cur != nil {
		for c, m := range *cur {
			next[c] = m
		}
	}
	next[col] = idx
	t.indexes.Store(&next)
	return idx
}

// EvalReference evaluates q with the retained seed evaluator against the
// current snapshot: backtracking over string tuples with a runtime greedy
// join order and map[string]string bindings. Its results are always equal
// to Eval's — the differential tests enforce this — and it exists precisely
// so that equivalence stays executable and the plan executor's speedup
// stays measurable.
func (db *Database) EvalReference(q *cq.Query) ([]Tuple, error) {
	return db.Snapshot().EvalReference(q)
}

// EvalReference is the snapshot-level reference evaluation; see
// Database.EvalReference.
func (s *Snapshot) EvalReference(q *cq.Query) ([]Tuple, error) {
	// Safety is the prepared form's verdict, as for a planned evaluation.
	if _, err := cq.PrepareQuery(q).Form(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ref := s.refState()
	for _, a := range q.Body {
		t, ok := ref.tables[a.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: query %s references unknown relation %q", q.Name, a.Rel)
		}
		if len(a.Args) != t.rel {
			return nil, fmt.Errorf("engine: query %s: atom %s has %d arguments, relation has arity %d",
				q.Name, a.Rel, len(a.Args), t.rel)
		}
	}
	seen := make(map[string]struct{})
	var out []Tuple
	binding := make(map[string]string)
	var eval func(atoms []cq.Atom)
	eval = func(atoms []cq.Atom) {
		if len(atoms) == 0 {
			ans := make(Tuple, len(q.Head))
			for i, h := range q.Head {
				if h.IsConst() {
					ans[i] = h.Value
				} else {
					ans[i] = binding[h.Value]
				}
			}
			k := ans.key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, ans)
			}
			return
		}
		// Greedy join order: evaluate the atom with the most bound
		// arguments next, so index lookups and early failures prune the
		// search.
		best, bestScore := 0, -1
		for i, a := range atoms {
			score := 0
			for _, arg := range a.Args {
				if arg.IsConst() {
					score++
				} else if _, has := binding[arg.Value]; has {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		atom := atoms[best]
		rest := make([]cq.Atom, 0, len(atoms)-1)
		rest = append(rest, atoms[:best]...)
		rest = append(rest, atoms[best+1:]...)

		table := ref.tables[atom.Rel]
		// Candidate rows: a hash-index probe on the first bound column, or
		// a full scan when nothing is bound.
		candidates := -1 // sentinel: full scan
		var rowIDs []int
		for i, arg := range atom.Args {
			val, boundOK := "", false
			if arg.IsConst() {
				val, boundOK = arg.Value, true
			} else if v, has := binding[arg.Value]; has {
				val, boundOK = v, true
			}
			if boundOK {
				rowIDs = table.index(i)[val]
				candidates = len(rowIDs)
				break
			}
		}
		tryRow := func(row Tuple) {
			var bound []string
			ok := true
			for i, arg := range atom.Args {
				if arg.IsConst() {
					if arg.Value != row[i] {
						ok = false
						break
					}
					continue
				}
				if v, has := binding[arg.Value]; has {
					if v != row[i] {
						ok = false
						break
					}
					continue
				}
				binding[arg.Value] = row[i]
				bound = append(bound, arg.Value)
			}
			if ok {
				eval(rest)
			}
			for _, v := range bound {
				delete(binding, v)
			}
		}
		if candidates >= 0 {
			for _, id := range rowIDs {
				tryRow(table.rows[id])
			}
		} else {
			for _, row := range table.rows {
				tryRow(row)
			}
		}
	}
	eval(q.Body)
	sortTuples(out)
	return out, nil
}
