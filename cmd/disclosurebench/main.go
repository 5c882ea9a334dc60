// Command disclosurebench regenerates the data series of the paper's
// evaluation — Figure 5 (disclosure-labeler throughput), Figure 6
// (policy-checker throughput) and footnote 3 (labeler throughput over
// growing schemas) — over the Facebook schema and security-view catalog of
// Section 7.2, plus the engine's micro-cells.
//
// Usage:
//
//	disclosurebench -exp figure5 [-queries N] [-seed S] [-tsv|-json]
//	disclosurebench -exp figure6 [-labels N] [-principals 1000,50000,1000000] [-tsv|-json]
//	disclosurebench -exp footnote3 [-queries N] [-seed S] [-tsv|-json]
//	disclosurebench -exp engine [-queries N] [-users 100,300,1000] [-goroutines 1,4] [-tsv|-json]
//
// An unknown -exp exits non-zero and names every experiment above. The
// defaults use the paper's parameters (one million queries/labels per
// point); use -queries/-labels to scale down for a quick run. The engine
// experiment evaluates the Figure-5 workload against synthetic social graphs
// of increasing size, comparing the compiled-plan snapshot executor against
// the retained pre-refactor backtracking evaluator, and adds one
// large-answer cell — a ≈ 640-row friend join over a 2000-user graph, plan
// cached — so the archive shows answer delivery (deduplication, the
// rank-ordered sort, materialization), not only matching. -json emits a
// machine-readable archive (redirect to BENCH_<exp>.json).
//
// Everything about the daemon — request path, durability, replication,
// failover, cache pressure — is measured by the repository benchmark
// (go run ./benchmark) against the real binary; the table under
// "Measurement" in ARCHITECTURE.md says where each number lives.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// largeAnswerUsers sizes the graph of the engine experiment's large-answer
// cell: the scan_load workload's 2000 users, ≈ 640 friends of Me.
const largeAnswerUsers = 2000

// experiments is the canonical list of -exp modes; the flag help and the
// unknown-experiment error both print it, so neither can drift from the
// switch below without failing TestMainUnknownExperiment.
const experiments = "figure5, figure6, footnote3 or engine"

func main() {
	exp := flag.String("exp", "figure5", "experiment to run: "+experiments)
	queries := flag.Int("queries", 1_000_000, "figure5/footnote3/engine: queries per measurement point")
	labels := flag.Int("labels", 1_000_000, "figure6: labels per measurement point")
	labelPool := flag.Int("label-pool", 200_000, "figure6: distinct pre-labeled queries to draw from")
	principals := flag.String("principals", "1000,50000,1000000", "figure6: comma-separated principal counts")
	partitions := flag.String("partitions", "1,5", "figure6: comma-separated max partition counts")
	maxAtoms := flag.String("max-atoms", "3,6,9,12,15", "figure5: comma-separated max atoms per query")
	maxElems := flag.String("max-elems", "5,10,15,20,25,30,35,40,45,50", "figure6: comma-separated max elements per partition")
	seed := flag.Int64("seed", 2013, "workload seed")
	pool := flag.Int("pool", 5000, "engine: distinct queries per point")
	goroutines := flag.String("goroutines", "1,4,16", "engine: comma-separated goroutine counts")
	users := flag.String("users", "100,300,1000", "engine: comma-separated social-graph sizes")
	tsv := flag.Bool("tsv", false, "emit tab-separated values instead of a table")
	jsonOut := flag.Bool("json", false, "emit indented JSON instead of a table (for a BENCH_<exp>.json archive)")
	flag.Parse()
	format := func(series []bench.Series, title, xLabel string) {
		switch {
		case *jsonOut:
			out, err := bench.FormatJSON(*exp, series)
			if err != nil {
				fatal(err)
			}
			fmt.Print(out)
		case *tsv:
			fmt.Print(bench.FormatTSV(series))
		default:
			fmt.Print(bench.FormatSeries(title, xLabel, series))
		}
	}

	switch *exp {
	case "figure5":
		cfg := bench.Figure5Config{Queries: *queries, MaxAtoms: ints(*maxAtoms), Seed: *seed}
		series, err := bench.RunFigure5(cfg)
		if err != nil {
			fatal(err)
		}
		format(series,
			fmt.Sprintf("Figure 5 — disclosure labeler performance (%d queries per point, seconds per 1M queries)", cfg.Queries),
			"max atoms per query")
		slow, fast := findSeries(series, "baseline"), findSeries(series, "bit vectors + hashing")
		if slow != nil && fast != nil && !*jsonOut && !*tsv {
			fmt.Printf("\nspeedup of bit vectors + hashing over baseline per point: %s\n",
				floats(bench.Speedup(*slow, *fast)))
		}
	case "figure6":
		cfg := bench.Figure6Config{
			Labels:        *labels,
			LabelPool:     *labelPool,
			Principals:    ints(*principals),
			MaxPartitions: ints(*partitions),
			MaxElems:      ints(*maxElems),
			Seed:          *seed,
		}
		series, err := bench.RunFigure6(cfg)
		if err != nil {
			fatal(err)
		}
		format(series,
			fmt.Sprintf("Figure 6 — policy checker performance (%d labels per point, seconds per 1M labels)", cfg.Labels),
			"max elements per partition")
	case "footnote3":
		cfg := bench.DefaultFootnote3Config()
		cfg.Queries = *queries
		cfg.Seed = *seed
		series, err := bench.RunFootnote3(cfg)
		if err != nil {
			fatal(err)
		}
		format(series,
			fmt.Sprintf("Footnote 3 — labeler throughput vs schema size (%d queries per point, seconds per 1M queries)", cfg.Queries),
			"relations in schema")
	case "engine":
		cfg := bench.DefaultEngineConfig()
		cfg.Queries = *queries
		cfg.Users = ints(*users)
		cfg.Goroutines = ints(*goroutines)
		cfg.Pool = *pool
		cfg.Seed = *seed
		series, err := bench.RunEngine(cfg)
		if err != nil {
			fatal(err)
		}
		// The large-answer cell: answer delivery at the repository
		// benchmark's scan_load size, which the replayed pool's mostly tiny
		// answers do not show.
		large, err := bench.RunEngineLargeAnswer(largeAnswerUsers, max(1, cfg.Queries/20), cfg.Seed)
		if err != nil {
			fatal(err)
		}
		const title = "Engine — compiled-plan snapshot executor vs reference evaluator (%d queries per point, seconds per 1M queries)"
		if *jsonOut || *tsv {
			format(append(series, large...), fmt.Sprintf(title, cfg.Queries), "users in graph")
		} else {
			format(series, fmt.Sprintf(title, cfg.Queries), "users in graph")
			for _, g := range cfg.Goroutines {
				ref := findSeries(series, fmt.Sprintf("reference g=%d", g))
				pl := findSeries(series, fmt.Sprintf("planned g=%d", g))
				if ref != nil && pl != nil {
					fmt.Printf("\nspeedup of planned over reference at g=%d per point: %s\n",
						g, floats(bench.Speedup(*ref, *pl)))
				}
			}
			fmt.Println()
			format(large,
				fmt.Sprintf("Engine — one large answer over a %d-user graph, plan cached (%d evaluations, seconds per 1M)", largeAnswerUsers, large[0].Points[0].QueriesTimed),
				"rows in the answer")
			fmt.Printf("\nspeedup of planned over reference on the large answer: %s\n", floats(bench.Speedup(large[1], large[0])))
		}
	default:
		fatal(fmt.Errorf("unknown experiment %q (want %s)", *exp, experiments))
	}
}

func findSeries(series []bench.Series, name string) *bench.Series {
	for i := range series {
		if series[i].Name == name {
			return &series[i]
		}
	}
	return nil
}

func ints(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("bad integer %q: %w", part, err))
		}
		out = append(out, n)
	}
	return out
}

func floats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%.2fx", f)
	}
	return strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disclosurebench:", err)
	os.Exit(1)
}
