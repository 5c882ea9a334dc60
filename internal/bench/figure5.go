// Package bench implements the paper's evaluation harness (Section 7.2):
// the disclosure-labeler throughput experiment of Figure 5 (RunFigure5),
// the policy-checker throughput experiment of Figure 6 (RunFigure6) and
// the schema-scaling experiment of footnote 3 (RunFootnote3). Each runner
// regenerates one data series set; the cmd/disclosurebench tool and the
// testing.B benchmarks are thin wrappers around this package. Figure 6
// decides through the daemon's own policy store (policy.ConcurrentStore);
// the daemon around it is measured by the repository benchmark (go run
// ./benchmark), not here. StaleSnapshot serves the executor's testing.B
// cells (BenchmarkEngineEval, BenchmarkEvalLargeAnswer), which are the one
// harness for the executor.
package bench

import (
	"fmt"
	"time"

	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// Point is one measurement of a series: x-axis value and seconds normalized
// to one million queries (the paper's y-axis).
type Point struct {
	X             int
	SecondsPer1M  float64
	QueriesTimed  int
	ElapsedSecond float64
	// Admitted counts the timed decisions that admitted their label, and
	// BytesPerPrincipal and BytesPerPolicy are the heap cost of the policy
	// store and of one policy (Figure 6 only).
	Admitted          int     `json:"admitted,omitempty"`
	BytesPerPrincipal float64 `json:"bytes_per_principal,omitempty"`
	BytesPerPolicy    float64 `json:"bytes_per_policy,omitempty"`
}

// Series is a named curve.
type Series struct {
	Name   string
	Points []Point
}

// Figure5Config configures the labeler-throughput experiment.
type Figure5Config struct {
	// Queries per measurement point. The paper uses 1,000,000; smaller
	// values keep unit tests fast and scale linearly.
	Queries int
	// MaxAtoms is the x-axis: the maximum number of atoms per query.
	// Values must be multiples of 3 (each subquery contributes up to three
	// atoms); the paper plots {3, 6, 9, 12, 15}.
	MaxAtoms []int
	// Seed makes workloads reproducible.
	Seed int64
}

// Figure5Variants lists the measured labeler variants in the paper's legend
// order (top to bottom in the figure legend: generation only, bitvec +
// hashing, hashing only, baseline).
var Figure5Variants = []string{"query generation only", "bit vectors + hashing", "hashing only", "baseline"}

// RunFigure5 runs the labeler-throughput experiment and returns one series
// per variant.
func RunFigure5(cfg Figure5Config) ([]Series, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("bench: Queries must be positive")
	}
	cat, err := fb.Catalog()
	if err != nil {
		return nil, err
	}
	variants := map[string]label.Labeler{
		"bit vectors + hashing": label.NewLabeler(cat),
		"hashing only":          label.NewHashedLabeler(cat),
		"baseline":              label.NewBaselineLabeler(cat),
	}
	out := make([]Series, 0, len(Figure5Variants))
	for _, name := range Figure5Variants {
		s := Series{Name: name}
		for _, ma := range cfg.MaxAtoms {
			if ma < 3 || ma%3 != 0 {
				return nil, fmt.Errorf("bench: MaxAtoms value %d is not a positive multiple of 3", ma)
			}
			gen := workload.MustNew(fb.Schema(), workload.Options{
				Seed:                     cfg.Seed,
				MaxSubqueries:            ma / 3,
				FriendScopesMarkIsFriend: true,
			})
			start := time.Now()
			if name == "query generation only" {
				for i := 0; i < cfg.Queries; i++ {
					_ = gen.Next()
				}
			} else {
				l := variants[name]
				for i := 0; i < cfg.Queries; i++ {
					if _, err := l.Label(gen.Next()); err != nil {
						return nil, fmt.Errorf("bench: labeling failed: %w", err)
					}
				}
			}
			elapsed := time.Since(start).Seconds()
			s.Points = append(s.Points, Point{
				X:             ma,
				SecondsPer1M:  elapsed * 1e6 / float64(cfg.Queries),
				QueriesTimed:  cfg.Queries,
				ElapsedSecond: elapsed,
			})
		}
		out = append(out, s)
	}
	return out, nil
}
