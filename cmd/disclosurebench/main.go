// Command disclosurebench regenerates the data series of the paper's
// Figure 5 (disclosure-labeler throughput) and Figure 6 (policy-checker
// throughput) over the Facebook schema and security-view catalog of
// Section 7.2.
//
// Usage:
//
//	disclosurebench -exp figure5 [-queries N] [-seed S] [-tsv|-json]
//	disclosurebench -exp figure6 [-labels N] [-principals 1000,50000,1000000] [-tsv|-json]
//	disclosurebench -exp footnote3 [-queries N] [-seed S] [-tsv|-json]
//	disclosurebench -exp cached [-queries N] [-pool N] [-goroutines 1,4,16] [-tsv|-json]
//	disclosurebench -exp engine [-queries N] [-users 100,300,1000] [-goroutines 1,4] [-tsv|-json]
//	disclosurebench -exp serve [-clients 64] [-requests N] [-batch N] [-users 300] [-json]
//	disclosurebench -exp wal [-queries N] [-users 100,300] [-goroutines 1,4] [-tsv|-json]
//	disclosurebench -exp adversarial [-queries N] [-principals 256] [-zipf-s 1.2] [-goroutines 1,4,16] [-json]
//	disclosurebench -exp shard [-queries N] [-shards 1,8] [-goroutines 1,8] [-tsv|-json]
//	disclosurebench -exp repl [-followers 0,1,2,4] [-clients 32] [-requests N] [-json]
//	disclosurebench -exp obs [-queries N] [-pool N] [-goroutines 1,4] [-json]
//	disclosurebench -exp failover [-trials 3] [-json]
//
// An unknown -exp exits non-zero and names every experiment above. The
// defaults use the paper's parameters (one million queries/labels per
// point); use -queries/-labels to scale down for a quick run. The
// footnote3 experiment sweeps labeler throughput over growing schemas.
// The cached experiment replays the Figure-5 workload from a bounded
// template pool and measures the canonical-fingerprint label cache against
// the uncached labeler at several goroutine counts. The engine experiment
// evaluates the same workload against synthetic social graphs of
// increasing size, comparing the compiled-plan snapshot executor against
// the retained pre-refactor backtracking evaluator, and adds one
// large-answer cell — a ≈ 640-row friend join over a 2000-user graph, plan
// cached — so the archive shows answer delivery (deduplication, the
// rank-ordered sort, materialization), not only matching. The serve experiment
// measures the whole request path of the disclosured HTTP service under a
// closed loop of concurrent clients, each an authenticated principal with
// its own deterministic query stream, and reports throughput plus latency
// percentiles. The wal experiment measures the durability tax: submit and
// bulk-load throughput with the write-ahead log off, on with per-operation
// fsync, and on without it. The adversarial experiment measures worst-case
// tail latency: Zipf-skewed principals concentrating the per-principal
// monitor locks, in a cache-friendly "repetitive" mode and a "hostile"
// mode where every submission is a fresh template against shrunken label
// and plan caches. The shard experiment sweeps the sharded durable submit
// pipeline over data-shard count × concurrency against the 1-shard
// layout. The repl experiment builds a durable primary plus in-process
// followers and measures read (explain) throughput scaling with node count
// against the single-node baseline, and the decision-RPC overhead of
// submitting through a follower versus the primary directly. The obs
// experiment measures the observability tax: the same submit workload with
// instrumentation off (metrics disabled, no timestamps taken) and on (full
// per-stage histograms and outcome counters), reporting matched-pair
// throughput, latency percentiles and the worst-case overhead percentage.
// The failover experiment runs real disclosured child processes: a durable
// primary SIGKILLed under load and a promotable follower promoted over
// HTTP, measuring the time from the promotion request to the first write
// the promoted node admits under the successor decision epoch.
// -json emits a machine-readable archive (redirect to BENCH_<exp>.json).
package main

import (
	"encoding/json"
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
const experiments = "figure5, figure6, footnote3, cached, engine, serve, wal, adversarial, shard, repl, obs or failover"

func main() {
	exp := flag.String("exp", "figure5", "experiment to run: "+experiments)
	queries := flag.Int("queries", 1_000_000, "figure5: queries per measurement point")
	labels := flag.Int("labels", 1_000_000, "figure6: labels per measurement point")
	labelPool := flag.Int("label-pool", 200_000, "figure6: distinct pre-labeled queries to draw from")
	principals := flag.String("principals", "1000,50000,1000000", "figure6: comma-separated principal counts")
	partitions := flag.String("partitions", "1,5", "figure6: comma-separated max partition counts")
	maxAtoms := flag.String("max-atoms", "3,6,9,12,15", "figure5: comma-separated max atoms per query")
	maxElems := flag.String("max-elems", "5,10,15,20,25,30,35,40,45,50", "figure6: comma-separated max elements per partition")
	seed := flag.Int64("seed", 2013, "workload seed")
	pool := flag.Int("pool", 5000, "cached/engine: distinct queries per point; serve: templates per client (serve defaults to 500 when unset)")
	goroutines := flag.String("goroutines", "1,4,16", "cached/engine: comma-separated goroutine counts")
	users := flag.String("users", "100,300,1000", "engine: comma-separated social-graph sizes")
	cacheCap := flag.Int("cache-capacity", 0, "cached: label-cache entry bound (0 = 2×pool, the warm regime; set below pool to study eviction)")
	zipfS := flag.Float64("zipf-s", 1.2, "adversarial: Zipf exponent of the principal draw (>1, larger = more skew)")
	shards := flag.String("shards", "1,8", "shard: comma-separated data-shard counts")
	followers := flag.String("followers", "0,1,2,4", "repl: comma-separated follower counts (0 = primary-only baseline)")
	trials := flag.Int("trials", 3, "failover: kill-promote cycles measured (each over a fresh cluster)")
	clients := flag.String("clients", "64", "serve: comma-separated concurrent-client counts; repl: one concurrent-client count (first value)")
	requests := flag.Int("requests", 200, "serve: requests per client")
	batch := flag.Int("batch", 1, "serve: queries per submit request")
	tsv := flag.Bool("tsv", false, "emit tab-separated values instead of a table")
	jsonOut := flag.Bool("json", false, "emit indented JSON instead of a table (for BENCH_*.json archives)")
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
	case "cached":
		cfg := bench.DefaultCachedConfig()
		cfg.Queries = *queries
		cfg.Pool = *pool
		cfg.MaxAtoms = ints(*maxAtoms)
		cfg.Goroutines = ints(*goroutines)
		cfg.CacheCapacity = *cacheCap
		cfg.Seed = *seed
		series, err := bench.RunCached(cfg)
		if err != nil {
			fatal(err)
		}
		format(series,
			fmt.Sprintf("Memoized labeling — cached vs uncached over a %d-template pool (%d queries per point, seconds per 1M queries)", cfg.Pool, cfg.Queries),
			"max atoms per query")
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
	case "wal":
		cfg := bench.DefaultWALConfig()
		cfg.Queries = *queries
		cfg.Pool = *pool
		cfg.Goroutines = ints(*goroutines)
		cfg.Seed = *seed
		// -users doubles as the load-series x-axis; the submit series runs
		// over a graph of the first value.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "users" {
				if us := ints(*users); len(us) > 0 {
					cfg.LoadUsers = us
					cfg.Users = us[0]
				}
			}
		})
		series, err := bench.RunWAL(cfg)
		if err != nil {
			fatal(err)
		}
		format(series,
			fmt.Sprintf("WAL — durable vs in-memory write paths (%d queries per submit point, seconds per 1M operations)", cfg.Queries),
			"goroutines (submit) / users (load)")
		if !*jsonOut && !*tsv {
			mem, wl := findSeries(series, "submit memory"), findSeries(series, "submit wal")
			if mem != nil && wl != nil {
				fmt.Printf("\nsubmit slowdown of wal over memory per point: %s\n", floats(bench.Speedup(*wl, *mem)))
			}
		}
	case "serve":
		cfg := bench.DefaultServeConfig()
		cfg.Requests = *requests
		cfg.Clients = ints(*clients)
		cfg.Batch = *batch
		cfg.Seed = *seed
		// -users and -pool are shared with the engine experiment and carry
		// its defaults, so DefaultServeConfig wins unless the flag was set
		// explicitly (serve measures one graph size: the first -users value
		// is taken).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "users":
				if us := ints(*users); len(us) > 0 {
					cfg.Users = us[0]
				}
			case "pool":
				cfg.Pool = *pool
			}
		})
		report, err := bench.RunServe(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(bench.FormatServe(report))
		}
	case "adversarial":
		cfg := bench.DefaultAdversarialConfig()
		cfg.ZipfS = *zipfS
		cfg.Seed = *seed
		// The shared flags keep their other experiments' defaults, so the
		// adversarial defaults win unless a flag was set explicitly. The
		// graph has one size (first -users value) and one principal count
		// (first -principals value).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "queries":
				cfg.Queries = *queries
			case "users":
				if us := ints(*users); len(us) > 0 {
					cfg.Users = us[0]
				}
			case "principals":
				if ps := ints(*principals); len(ps) > 0 {
					cfg.Principals = ps[0]
				}
			case "pool":
				cfg.Pool = *pool
			case "goroutines":
				cfg.Goroutines = ints(*goroutines)
			case "cache-capacity":
				cfg.CacheCapacity = *cacheCap
			}
		})
		report, err := bench.RunAdversarial(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(bench.FormatAdversarial(report))
		}
	case "shard":
		cfg := bench.DefaultShardConfig()
		cfg.Seed = *seed
		// The shared flags keep their other experiments' defaults, so the
		// shard defaults win unless a flag was set explicitly (the graph
		// has one size: the first -users value is taken).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "queries":
				cfg.Queries = *queries
			case "pool":
				cfg.Pool = *pool
			case "goroutines":
				cfg.Goroutines = ints(*goroutines)
			case "shards":
				cfg.Shards = ints(*shards)
			case "users":
				if us := ints(*users); len(us) > 0 {
					cfg.Users = us[0]
				}
			}
		})
		series, err := bench.RunShard(cfg)
		if err != nil {
			fatal(err)
		}
		format(series,
			fmt.Sprintf("Sharded WAL — durable submit throughput over shards × concurrency (%d queries per point, seconds per 1M queries)", cfg.Queries),
			"concurrent submitters")
		if !*jsonOut && !*tsv {
			base := findSeries(series, "submit s=1")
			for _, s := range cfg.Shards {
				sharded := findSeries(series, fmt.Sprintf("submit s=%d", s))
				if base != nil && sharded != nil && s != 1 {
					fmt.Printf("\nspeedup of s=%d over the 1-shard layout per point: %s\n",
						s, floats(bench.Speedup(*base, *sharded)))
				}
			}
		}
	case "obs":
		cfg := bench.DefaultObsConfig()
		cfg.Seed = *seed
		// The shared flags keep their other experiments' defaults, so the
		// obs defaults win unless a flag was set explicitly.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "queries":
				cfg.Queries = *queries
			case "pool":
				cfg.Pool = *pool
			case "goroutines":
				cfg.Goroutines = ints(*goroutines)
			case "users":
				if us := ints(*users); len(us) > 0 {
					cfg.Users = us[0]
				}
			}
		})
		report, err := bench.RunObs(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(bench.FormatObs(report))
		}
	case "repl":
		cfg := bench.DefaultReplConfig()
		cfg.Followers = ints(*followers)
		cfg.Seed = *seed
		// The shared flags keep their other experiments' defaults, so the
		// repl defaults win unless a flag was set explicitly (the graph has
		// one size and the cells one client count: first values are taken).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "requests":
				cfg.Requests = *requests
				cfg.SubmitRequests = *requests
			case "clients":
				if cs := ints(*clients); len(cs) > 0 {
					cfg.Clients = cs[0]
				}
			case "users":
				if us := ints(*users); len(us) > 0 {
					cfg.Users = us[0]
				}
			case "pool":
				cfg.Pool = *pool
			}
		})
		report, err := bench.RunRepl(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(bench.FormatRepl(report))
		}
	case "failover":
		cfg := bench.DefaultFailoverConfig()
		cfg.Trials = *trials
		cfg.Seed = *seed
		report, err := bench.RunFailover(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(bench.FormatFailover(report))
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
