package bench

import (
	"fmt"
	"os"
	"time"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/workload"
)

// WALConfig configures the durability experiment: the cost of write-ahead
// logging every state-changing operation, measured on the two write paths
// — Submit (one logged record per session transition, none for the
// decisions that change nothing) and LoadBatch (one logged record per
// batch) — against the in-memory System as the baseline. Three
// variants run: "memory" (no WAL), "wal" (fsync per operation, the
// default durability contract) and "wal-nosync" (OS-buffered appends,
// surviving process crashes but not power loss).
type WALConfig struct {
	// Queries per submit measurement point.
	Queries int
	// Pool is the number of distinct queries pre-generated and replayed
	// round-robin.
	Pool int
	// Users sizes the populated graph the submit workload runs over.
	Users int
	// LoadUsers is the x-axis of the load series: synthetic social graphs
	// of these sizes are bulk-loaded, timed per row.
	LoadUsers []int
	// Goroutines is the x-axis of the submit series: submission
	// concurrency levels (the WAL serializes decisions, so this measures
	// how much of the logging cost concurrency hides).
	Goroutines []int
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int
	// Seed makes workloads and graphs reproducible.
	Seed int64
}

// DefaultWALConfig returns a unit-scale configuration.
func DefaultWALConfig() WALConfig {
	return WALConfig{
		Queries:    10_000,
		Pool:       1_000,
		Users:      200,
		LoadUsers:  []int{100, 300},
		Goroutines: []int{1, 4},
		MaxAtoms:   9,
		Seed:       2013,
	}
}

// walVariant opens a System in one durability mode; cleanup releases the
// handle and its scratch directory.
type walVariant struct {
	name string
	open func() (*disclosure.System, func(), error)
}

// walVariants builds the three durability modes over the Facebook schema.
func walVariants() ([]walVariant, error) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return nil, err
	}
	durable := func(noSync bool) func() (*disclosure.System, func(), error) {
		return func() (*disclosure.System, func(), error) {
			dir, err := os.MkdirTemp("", "disclosure-wal-bench-")
			if err != nil {
				return nil, nil, err
			}
			d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{NoSync: noSync}, s, views...)
			if err != nil {
				os.RemoveAll(dir)
				return nil, nil, err
			}
			cleanup := func() {
				d.Close()
				os.RemoveAll(dir)
			}
			return d.System(), cleanup, nil
		}
	}
	return []walVariant{
		{"memory", func() (*disclosure.System, func(), error) {
			sys, err := disclosure.NewSystem(s, views...)
			return sys, func() {}, err
		}},
		{"wal", durable(false)},
		{"wal-nosync", durable(true)},
	}, nil
}

// RunWAL runs the durability experiment and returns one "submit <variant>"
// series (X = goroutines, normalized per million queries) and one
// "load <variant>" series (X = users in the loaded graph, normalized per
// million rows) per durability mode.
func RunWAL(cfg WALConfig) ([]Series, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if cfg.MaxAtoms < 3 || cfg.MaxAtoms%3 != 0 {
		return nil, fmt.Errorf("bench: MaxAtoms %d is not a positive multiple of 3", cfg.MaxAtoms)
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	variants, err := walVariants()
	if err != nil {
		return nil, err
	}
	views, err := fb.SecurityViews(fb.Schema())
	if err != nil {
		return nil, err
	}
	allViews := make([]string, len(views))
	for i, v := range views {
		allViews[i] = v.Name
	}
	gen, err := workload.New(fb.Schema(), workload.Options{
		Seed:                     cfg.Seed,
		MaxSubqueries:            cfg.MaxAtoms / 3,
		FriendScopesMarkIsFriend: true,
	})
	if err != nil {
		return nil, err
	}
	pool := gen.Batch(cfg.Pool)

	var out []Series
	for _, v := range variants {
		// Submit path: populated graph, one permissive principal, timed
		// submissions (only session transitions are logged on the durable
		// modes, so the steady state measures the unlogged decision path).
		s := Series{Name: "submit " + v.name}
		for _, g := range cfg.Goroutines {
			if g <= 0 {
				return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
			}
			sys, cleanup, err := v.open()
			if err != nil {
				return nil, fmt.Errorf("bench: wal %s: %w", v.name, err)
			}
			err = sys.LoadBatch(func(ld *disclosure.Loader) error {
				return fb.GenerateGraph(ld, cfg.Users, cfg.Seed)
			})
			if err == nil {
				err = sys.SetPolicy("app", map[string][]string{"all": allViews})
			}
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("bench: wal %s: %w", v.name, err)
			}
			elapsed, err := timeConcurrent(cfg.Queries, g, func(i int) error {
				_, _, err := sys.Submit("app", pool[i%len(pool)])
				return err
			})
			cleanup()
			if err != nil {
				return nil, fmt.Errorf("bench: wal %s submit: %w", v.name, err)
			}
			s.Points = append(s.Points, Point{
				X:             g,
				SecondsPer1M:  elapsed * 1e6 / float64(cfg.Queries),
				QueriesTimed:  cfg.Queries,
				ElapsedSecond: elapsed,
			})
		}
		out = append(out, s)
	}
	for _, v := range variants {
		// Load path: one bulk LoadBatch of a synthetic graph, timed per
		// inserted row (one logged record per batch on the durable modes).
		s := Series{Name: "load " + v.name}
		for _, users := range cfg.LoadUsers {
			if users < 1 {
				return nil, fmt.Errorf("bench: LoadUsers value %d must be at least 1", users)
			}
			sys, cleanup, err := v.open()
			if err != nil {
				return nil, fmt.Errorf("bench: wal %s: %w", v.name, err)
			}
			start := time.Now()
			err = sys.LoadBatch(func(ld *disclosure.Loader) error {
				return fb.GenerateGraph(ld, users, cfg.Seed)
			})
			elapsed := time.Since(start).Seconds()
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("bench: wal %s load: %w", v.name, err)
			}
			rows := 0
			for _, rel := range fb.Schema().Relations() {
				rows += sys.Table(rel.Name()).Len()
			}
			cleanup()
			s.Points = append(s.Points, Point{
				X:             users,
				SecondsPer1M:  elapsed * 1e6 / float64(rows),
				QueriesTimed:  rows,
				ElapsedSecond: elapsed,
			})
		}
		out = append(out, s)
	}
	return out, nil
}
