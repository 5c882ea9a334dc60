package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Figure6Config configures the policy-checker throughput experiment
// (Section 7.2, Figure 6): randomly generated policies installed for every
// principal in the daemon's policy store (policy.ConcurrentStore), and
// disclosure labels randomly assigned to principals and decided by it.
//
// Deviation from the paper: at most sharedPolicies distinct policies are
// built per point. Beyond that many principals, principal p holds policy
// p mod sharedPolicies, as a daemon that hash-consed installed policies
// would hold them; every principal keeps its own session state.
type Figure6Config struct {
	// Labels per measurement point (the paper analyzes one million labels
	// drawn from a pool of ten million). They are drawn from a pool of
	// min(Labels, 200 000) pre-labeled queries: Figure 6's 1–3 atom
	// queries carry only a few dozen distinct labels, so a larger pool
	// changes nothing.
	Labels int
	// Principals is one curve parameter: {1_000, 50_000, 1_000_000}.
	Principals []int
	// MaxPartitions is the other: 1 (stateless) or 5 (Chinese Wall).
	MaxPartitions []int
	// MaxElems is the x-axis: maximum security views per partition,
	// {5, 10, ..., 50} in the paper.
	MaxElems []int
	// Seed makes runs reproducible.
	Seed int64
}

// sharedPolicies bounds the distinct policies built per point. One policy
// per principal at 1 M principals would take over 3 GB per point (a policy
// of ≤ 5 partitions of ≤ 50 views costs ≈ 3.3 KB); the 1 k and 50 k curves
// still give every principal its own.
const sharedPolicies = 50_000

// figure6Store is one measurement point's policy store and what building
// it cost.
type figure6Store struct {
	store *policy.ConcurrentStore
	names []string // principal names "p0", "p1", …, in install order
	// bytesPerPolicy and bytesPerPrincipal are the heap growth, after a
	// full collection, of building the policies and of installing them.
	bytesPerPolicy, bytesPerPrincipal float64
}

// newFigure6Store builds random policies with policy.New over the catalog's
// security views — 1…maxPartitions partitions of 1…maxElems views each —
// and installs them under principal names in a fresh policy.ConcurrentStore,
// the store the daemon decides with.
func newFigure6Store(cat *label.Catalog, rng *rand.Rand, principals, maxPartitions, maxElems int) (*figure6Store, error) {
	views := cat.Views()
	before := heapBytes()
	policies := make([]*policy.Policy, min(principals, sharedPolicies))
	for i := range policies {
		parts := make(map[string][]string)
		for k := 1 + rng.Intn(maxPartitions); k > 0; k-- {
			elems := make([]string, 1+rng.Intn(maxElems))
			for e := range elems {
				elems[e] = views[rng.Intn(len(views))].Name
			}
			parts[fmt.Sprintf("W%d", k)] = elems
		}
		p, err := policy.New(cat, parts)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}
	built := heapBytes()
	fs := &figure6Store{store: policy.NewConcurrentStore(), names: make([]string, principals)}
	for i := range fs.names {
		fs.names[i] = fmt.Sprintf("p%d", i)
		fs.store.SetPolicy(fs.names[i], policies[i%len(policies)])
	}
	installed := heapBytes()
	fs.bytesPerPolicy = float64(built-before) / float64(len(policies))
	fs.bytesPerPrincipal = float64(installed-built) / float64(principals)
	return fs, nil
}

// heapBytes returns the live heap after a full collection. It collects
// twice: a sync.Pool's objects survive one collection in the pool's victim
// cache, so after a single GC the pools that labeling filled would be freed
// by the next one, between two readings, and a difference could go negative.
func heapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// figure6Labels labels n queries of Figure 6's workload: 1–3 atom queries
// (the paper reuses the labels produced by the Figure-5 experiment).
func figure6Labels(cat *label.Catalog, seed int64, n int) ([]label.Label, error) {
	gen := workload.MustNew(fb.Schema(), workload.Options{
		Seed:                     seed,
		MaxSubqueries:            1,
		FriendScopesMarkIsFriend: true,
	})
	labeler := label.NewLabeler(cat)
	pool := make([]label.Label, n)
	for i := range pool {
		lbl, err := labeler.Label(gen.Next())
		if err != nil {
			return nil, err
		}
		pool[i] = lbl
	}
	return pool, nil
}

// RunFigure6 runs the policy-checker experiment and returns one series per
// (partitions, principals) combination, named as in the paper's legend,
// e.g. "5-way, 1M users".
func RunFigure6(cfg Figure6Config) ([]Series, error) {
	if cfg.Labels <= 0 {
		return nil, fmt.Errorf("bench: Labels must be positive")
	}
	for _, axis := range []struct {
		name   string
		values []int
	}{{"Principals", cfg.Principals}, {"MaxPartitions", cfg.MaxPartitions}, {"MaxElems", cfg.MaxElems}} {
		if len(axis.values) == 0 {
			return nil, fmt.Errorf("bench: %s is empty", axis.name)
		}
		for _, v := range axis.values {
			if v <= 0 {
				return nil, fmt.Errorf("bench: %s value %d is not positive", axis.name, v)
			}
		}
	}
	cat, err := fb.Catalog()
	if err != nil {
		return nil, err
	}
	pool, err := figure6Labels(cat, cfg.Seed, min(cfg.Labels, 200_000))
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Series
	for _, maxPart := range cfg.MaxPartitions {
		for _, principals := range cfg.Principals {
			s := Series{Name: fmt.Sprintf("%d-way, %s users", maxPart, humanCount(principals))}
			for _, maxElems := range cfg.MaxElems {
				fs, err := newFigure6Store(cat, rng, principals, maxPart, maxElems)
				if err != nil {
					return nil, err
				}
				// Pre-assign labels to principals so assignment cost stays
				// out of the timed loop.
				assign := make([]int32, cfg.Labels)
				labelIdx := make([]int32, cfg.Labels)
				for i := range assign {
					assign[i] = int32(rng.Intn(principals))
					labelIdx[i] = int32(rng.Intn(len(pool)))
				}
				start := time.Now()
				admitted := 0
				for i := range assign {
					d, err := fs.store.Submit(fs.names[assign[i]], pool[labelIdx[i]])
					if err != nil {
						return nil, err
					}
					if d.Allowed {
						admitted++
					}
				}
				elapsed := time.Since(start).Seconds()
				s.Points = append(s.Points, Point{
					X:                 maxElems,
					SecondsPer1M:      elapsed * 1e6 / float64(cfg.Labels),
					QueriesTimed:      cfg.Labels,
					ElapsedSecond:     elapsed,
					Admitted:          admitted,
					BytesPerPrincipal: fs.bytesPerPrincipal,
					BytesPerPolicy:    fs.bytesPerPolicy,
				})
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func humanCount(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprint(n)
	}
}
