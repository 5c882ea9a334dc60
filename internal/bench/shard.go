package bench

import (
	"fmt"
	"os"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/workload"
)

// ShardConfig configures the sharded-durability experiment: submit
// throughput of a durable System swept over data-shard count ×
// submission concurrency. One shard is one log, one lock and one fsync
// stream; many shards show what shard-local locks buy once enough
// concurrent submitters exist to fill commit windows. Each concurrency
// level runs one principal per submitter, so the consistent-hash router
// actually spreads the load across shards (a single hot principal would
// serialize on its monitor no matter the layout).
type ShardConfig struct {
	// Queries per measurement point.
	Queries int
	// Pool is the number of distinct queries pre-generated and replayed
	// round-robin.
	Pool int
	// Users sizes the populated graph the workload runs over.
	Users int
	// Shards lists the data-shard counts to sweep.
	Shards []int
	// Goroutines is the x-axis: concurrent submitters (= principals).
	Goroutines []int
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int
	// Seed makes workloads and graphs reproducible.
	Seed int64
}

// DefaultShardConfig returns a unit-scale configuration: 1 and 8 shards at
// 1 and 8 concurrent submitters.
func DefaultShardConfig() ShardConfig {
	return ShardConfig{
		Queries:    6_000,
		Pool:       500,
		Users:      200,
		Shards:     []int{1, 8},
		Goroutines: []int{1, 8},
		MaxAtoms:   9,
		Seed:       2013,
	}
}

// RunShard runs the sharded-durability experiment and returns one
// "submit s=<shards>" series per shard count, X = concurrent submitters,
// normalized per million queries.
func RunShard(cfg ShardConfig) ([]Series, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if cfg.MaxAtoms < 3 || cfg.MaxAtoms%3 != 0 {
		return nil, fmt.Errorf("bench: MaxAtoms %d is not a positive multiple of 3", cfg.MaxAtoms)
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	if len(cfg.Shards) == 0 || len(cfg.Goroutines) == 0 {
		return nil, fmt.Errorf("bench: Shards and Goroutines must be non-empty")
	}
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return nil, err
	}
	allViews := make([]string, len(views))
	for i, v := range views {
		allViews[i] = v.Name
	}
	gen, err := workload.New(s, workload.Options{
		Seed:                     cfg.Seed,
		MaxSubqueries:            cfg.MaxAtoms / 3,
		FriendScopesMarkIsFriend: true,
	})
	if err != nil {
		return nil, err
	}
	pool := gen.Batch(cfg.Pool)

	var out []Series
	for _, shards := range cfg.Shards {
		if shards < 1 {
			return nil, fmt.Errorf("bench: shard count must be positive, got %d", shards)
		}
		series := Series{Name: fmt.Sprintf("submit s=%d", shards)}
		for _, g := range cfg.Goroutines {
			if g <= 0 {
				return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
			}
			elapsed, err := runShardPoint(cfg, s, views, allViews, pool, shards, g)
			if err != nil {
				return nil, fmt.Errorf("bench: %s g=%d: %w", series.Name, g, err)
			}
			series.Points = append(series.Points, Point{
				X:             g,
				SecondsPer1M:  elapsed * 1e6 / float64(cfg.Queries),
				QueriesTimed:  cfg.Queries,
				ElapsedSecond: elapsed,
			})
		}
		out = append(out, series)
	}
	return out, nil
}

// runShardPoint measures one (shards, concurrency) point on a freshly
// initialized durable deployment with one principal per submitter.
func runShardPoint(cfg ShardConfig, s *disclosure.Schema, views []*disclosure.Query, allViews []string, pool []*disclosure.Query, shards, g int) (float64, error) {
	dir, err := os.MkdirTemp("", "disclosure-shard-bench-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{Shards: shards}, s, views...)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	sys := d.System()
	if err := sys.LoadBatch(func(ld *disclosure.Loader) error {
		return fb.GenerateGraph(ld, cfg.Users, cfg.Seed)
	}); err != nil {
		return 0, err
	}
	principals := make([]string, g)
	for i := range principals {
		principals[i] = fmt.Sprintf("app-%d", i)
		if err := sys.SetPolicy(principals[i], map[string][]string{"all": allViews}); err != nil {
			return 0, err
		}
	}
	return timeConcurrent(cfg.Queries, g, func(i int) error {
		_, _, err := sys.Submit(principals[i%g], pool[i%len(pool)])
		return err
	})
}
