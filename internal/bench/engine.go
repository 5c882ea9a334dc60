package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/workload"
)

// EngineConfig configures the evaluation-engine throughput experiment: the
// Figure-5 workload replayed from a bounded template pool against synthetic
// social graphs of increasing size, evaluated by the compiled-plan executor
// (dictionary-encoded columns, plan cache, lock-free snapshot reads) and by
// the retained pre-refactor backtracking evaluator on the same data.
type EngineConfig struct {
	// Queries per measurement point.
	Queries int
	// Users is the x-axis: the number of users in the generated graph
	// (every relation grows roughly linearly with it).
	Users []int
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int
	// Pool is the number of distinct queries pre-generated per point and
	// replayed round-robin; it bounds the template space.
	Pool int
	// Goroutines lists the evaluation concurrency levels to measure.
	Goroutines []int
	// Seed makes workloads and graphs reproducible.
	Seed int64
}

// DefaultEngineConfig returns a unit-scale configuration.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Queries:    20_000,
		Users:      []int{100, 300, 1000},
		MaxAtoms:   9,
		Pool:       2_000,
		Goroutines: []int{1, 4},
		Seed:       2013,
	}
}

// RunEngine runs the engine experiment and returns one series per
// (variant, goroutine count) pair, with X = users in the graph. Each cell
// starts cold (fresh database, empty plan cache, unmaterialized reference
// state) and warms up within the measured run.
func RunEngine(cfg EngineConfig) ([]Series, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if cfg.MaxAtoms < 3 || cfg.MaxAtoms%3 != 0 {
		return nil, fmt.Errorf("bench: MaxAtoms %d is not a positive multiple of 3", cfg.MaxAtoms)
	}
	for _, g := range cfg.Goroutines {
		if g <= 0 {
			return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
		}
	}
	variants := []struct {
		name string
		eval func(db *engine.Database, q *cq.Query) ([]engine.Tuple, error)
	}{
		{"planned", func(db *engine.Database, q *cq.Query) ([]engine.Tuple, error) { return db.Eval(q) }},
		{"reference", func(db *engine.Database, q *cq.Query) ([]engine.Tuple, error) { return db.EvalReference(q) }},
	}
	var out []Series
	for _, v := range variants {
		for _, g := range cfg.Goroutines {
			s := Series{Name: fmt.Sprintf("%s g=%d", v.name, g)}
			for _, users := range cfg.Users {
				if users < 1 {
					return nil, fmt.Errorf("bench: Users value %d must be at least 1", users)
				}
				w, err := workload.New(fb.Schema(), workload.Options{
					Seed:                     cfg.Seed,
					MaxSubqueries:            cfg.MaxAtoms / 3,
					FriendScopesMarkIsFriend: true,
				})
				if err != nil {
					return nil, err
				}
				pool := w.Batch(cfg.Pool)
				db := engine.NewDatabase(fb.Schema())
				if err := fb.GenerateGraph(db, users, cfg.Seed); err != nil {
					return nil, err
				}
				elapsed, err := timeConcurrent(cfg.Queries, g, func(i int) error {
					_, err := v.eval(db, pool[i%len(pool)])
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench: engine %s (users=%d): %w", v.name, users, err)
				}
				s.Points = append(s.Points, Point{
					X:             users,
					SecondsPer1M:  elapsed * 1e6 / float64(cfg.Queries),
					QueriesTimed:  cfg.Queries,
					ElapsedSecond: elapsed,
				})
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// RunEngineLargeAnswer measures answer delivery rather than matching: one
// friend join (fb.LargeAnswerQuery) over a graph of the given size, whose
// answer has one row per friend of Me, evaluated evals times on one
// goroutine by the compiled-plan executor — plan cached, so the time is
// block execution, deduplication, the rank-ordered sort and
// materialization — and by the reference evaluator. It returns one
// single-point series per variant, with X = rows in the answer.
func RunEngineLargeAnswer(users, evals int, seed int64) ([]Series, error) {
	if users < 1 || evals < 1 {
		return nil, fmt.Errorf("bench: users and evals must be positive")
	}
	db := engine.NewDatabase(fb.Schema())
	if err := fb.GenerateGraph(db, users, seed); err != nil {
		return nil, err
	}
	q, err := cq.ParseQuery(fb.LargeAnswerQuery)
	if err != nil {
		return nil, err
	}
	var out []Series
	for _, v := range []struct {
		name string
		eval func(q *cq.Query) ([]engine.Tuple, error)
	}{
		{"planned large-answer", db.Eval},
		{"reference large-answer", db.EvalReference},
	} {
		rows, err := v.eval(q) // warm: plan compiled, rank table and reference state built
		if err != nil {
			return nil, fmt.Errorf("bench: engine %s: %w", v.name, err)
		}
		elapsed, err := timeConcurrent(evals, 1, func(int) error {
			_, err := v.eval(q)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: engine %s: %w", v.name, err)
		}
		out = append(out, Series{Name: v.name, Points: []Point{{
			X:             len(rows),
			SecondsPer1M:  elapsed * 1e6 / float64(evals),
			QueriesTimed:  evals,
			ElapsedSecond: elapsed,
		}}})
	}
	return out, nil
}

// timeConcurrent runs f(0..n-1) across g goroutines and returns the elapsed
// wall time in seconds, or the first error any worker hit.
func timeConcurrent(n, g int, f func(i int) error) (float64, error) {
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return 0, firstErr
	}
	return elapsed, nil
}
