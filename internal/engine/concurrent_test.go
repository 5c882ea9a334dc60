package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// TestConcurrentInsertEvalSnapshot hammers lock-free evaluation against a
// concurrent writer; run with -race. The writer inserts K(i, i) for
// increasing i, so every reader must observe a prefix: a result set
// {0..k-1} — never a torn or non-contiguous view — for some k between the
// insert count before its snapshot load and one past the count after it:
// the writer publishes row i before it stores i+1, so a row may precede its
// counter by one.
func TestConcurrentInsertEvalSnapshot(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("K", "a", "b"))
	db := NewDatabase(s)
	q := cq.MustParse("Q(a) :- K(a, b)")
	const total = 400
	var inserted atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			db.MustInsert("K", fmt.Sprintf("%06d", i), fmt.Sprintf("%06d", i))
			inserted.Store(int64(i + 1))
		}
	}()

	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := inserted.Load()
				rows, err := db.Eval(q)
				hi := inserted.Load()
				if err != nil {
					errc <- err
					return
				}
				n := int64(len(rows))
				if n < lo || n > hi+1 {
					errc <- fmt.Errorf("saw %d rows outside insert window [%d, %d]", n, lo, hi+1)
					return
				}
				// Prefix check: sorted zero-padded values must be exactly
				// 0..n-1.
				for i, row := range rows {
					if row[0] != fmt.Sprintf("%06d", i) {
						errc <- fmt.Errorf("row %d = %q, want %06d (torn snapshot)", i, row[0], i)
						return
					}
				}
				if n == total {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentLoadEvalTableIter mixes batch loads, point-indexed and
// boolean evaluation and snapshot table iteration; run with -race. It asserts only race-freedom and per-snapshot consistency of
// Table views.
func TestConcurrentLoadEvalTableIter(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("T", "a", "b", "c"),
	)
	db := NewDatabase(s)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for batch := 0; batch < 30; batch++ {
			err := db.Load(func(ld *Loader) error {
				for i := 0; i < 20; i++ {
					v := fmt.Sprint(batch*20 + i)
					if err := ld.Insert("R", v, fmt.Sprint(i%5)); err != nil {
						return err
					}
					if err := ld.Insert("T", v, fmt.Sprint(i%3), "k"); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
		}
	}()
	queries := []*cq.Query{
		cq.MustParse("Q(a) :- R(a, '3')"),
		cq.MustParse("Q(a, c) :- R(a, b), T(a, b, c)"),
		cq.MustParse("Q() :- T(a, b, 'k')"),
	}
	errc := make(chan error, 6)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := db.Eval(queries[(g+i)%len(queries)]); err != nil {
					errc <- err
					return
				}
				if i%20 == 0 {
					view := db.Table("R")
					n := 0
					for range view.All() {
						n++
					}
					if n != view.Len() {
						errc <- fmt.Errorf("iterated %d rows of a %d-row view", n, view.Len())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := db.PlanStats()
	if st.Hits == 0 {
		t.Errorf("plan cache saw no hits: %s", st)
	}
}
