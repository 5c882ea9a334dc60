// Command disclosurebench regenerates the data series of the paper's
// evaluation — Figure 5 (disclosure-labeler throughput), Figure 6
// (policy-checker throughput) and footnote 3 (labeler throughput over
// growing schemas) — over the Facebook schema and security-view catalog of
// Section 7.2.
//
// Usage:
//
//	disclosurebench -exp figure5 [-queries N] [-seed S] [-tsv|-json]
//	disclosurebench -exp figure6 [-labels N] [-principals 1000,50000,1000000] [-partitions 1,5] [-max-elems 5,10,…] [-tsv|-json]
//	disclosurebench -exp footnote3 [-queries N] [-seed S] [-tsv|-json]
//
// An unknown -exp exits non-zero and names every experiment above. The
// defaults use the paper's parameters (one million queries/labels per
// point); use -queries/-labels to scale down for a quick run. -json emits
// a machine-readable archive (redirect to BENCH_<exp>.json).
//
// The evaluation engine is timed by go test benchmarks, not here:
// BenchmarkEngineEval and BenchmarkEvalLargeAnswer (repository root)
// compare the compiled-plan executor with the reference evaluator.
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

// experiments is the canonical list of -exp modes; the flag help and the
// unknown-experiment error both print it, so neither can drift from the
// switch below without failing TestMainUnknownExperiment.
const experiments = "figure5, figure6 or footnote3"

func main() {
	exp := flag.String("exp", "figure5", "experiment to run: "+experiments)
	queries := flag.Int("queries", 1_000_000, "figure5/footnote3: queries per measurement point")
	labels := flag.Int("labels", 1_000_000, "figure6: labels per measurement point")
	principals := flag.String("principals", "1000,50000,1000000", "figure6: comma-separated principal counts")
	partitions := flag.String("partitions", "1,5", "figure6: comma-separated max partition counts")
	maxAtoms := flag.String("max-atoms", "3,6,9,12,15", "figure5: comma-separated max atoms per query")
	maxElems := flag.String("max-elems", "5,10,15,20,25,30,35,40,45,50", "figure6: comma-separated max elements per partition")
	seed := flag.Int64("seed", 2013, "workload seed")
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
		if !*jsonOut && !*tsv {
			fmt.Println()
			fmt.Print(bench.FormatCosts("Figure 6 — labels admitted, heap bytes per principal in the store, bytes per policy", "max elements per partition", series))
		}
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
