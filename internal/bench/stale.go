package bench

import (
	"repro/internal/cq"
	"repro/internal/engine"
)

// StaleSnapshot returns a snapshot at which every evaluation of qs executes
// in full, which is what an executor measurement needs: it inserts one row
// of fresh values into every relation of db, evaluates each of qs twice at
// the snapshot after, so that the plan cache keeps each plan (on its second
// sighting) and the plan records its answer there, and returns the snapshot
// before. A plan hands its last answer out again while the
// tables it reads are unchanged and merges in only the joins of the rows
// added since while they grow; at a snapshot older than its recorded
// answer it executes in full, and leaves the record in place for the next
// evaluation to find.
func StaleSnapshot(db *engine.Database, qs ...*cq.Query) (*engine.Snapshot, error) {
	stale := db.Snapshot()
	err := db.Load(func(ld *engine.Loader) error {
		for _, r := range db.Schema().Relations() {
			row := make([]string, r.Arity())
			for i := range row {
				row[i] = "alternate-" + r.Attr(i)
			}
			if err := ld.Insert(r.Name(), row...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cur := db.Snapshot()
	for range 2 {
		for _, q := range qs {
			if _, err := db.EvalAt(cur, q); err != nil {
				return nil, err
			}
		}
	}
	return stale, nil
}
