// Command benchmark is the repository's one in-tree benchmark of the
// reference monitor. It builds ./cmd/disclosured from the checkout, starts
// it as a child process with production defaults, and drives it over the
// wire API from this process in a closed loop — min(nproc, 4) clients,
// each one principal on one keep-alive connection waiting for every reply,
// as the paper's apps do. End-to-end metrics are taken from outside the
// real program with tracing off (--trace 0); per-layer metrics come from
// the daemon's own public counters plus a separate traced replay of the
// same op stream, in-process, where this harness walks the submit path
// through the layers' public functions and records one span per call
// (--trace 1). Every answer is checked against a sequential monitor model
// and the engine's reference evaluator.
//
// Usage, from the root of a checkout:
//
//	go run ./benchmark --workload warm_mixed --seed 2013 --seconds 10 --trace 0
//	go run ./benchmark -selfcheck
//	go run ./benchmark -smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. BENCHMARK.json at the root names
// the workloads and every metric with its unit, direction and regression
// bound; benchmark/README.md explains why each exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks graphs and pools and sets up once: a drift check of the
	// public call surface, not a measurement.
	smoke bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// clientCount is the closed loop's width: never more clients than cores,
// so the load generator does not queue against itself.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// setupRepeats is how many times a run sets the deployment up; setup_s is
// the median, the last deployment serves the timed phase.
const setupRepeats = 5

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 2013, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the daemon's counters and the traced replay")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare each end-to-end metric's difference with its bound")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny run of all five workloads, traced replay included")
	flag.Parse()
	cfg.trace = trace != 0

	if os.Getenv(echoEnv) != "" {
		fatalIf(runEcho())
		return
	}
	killChildrenOnSignal()
	// The load generator shares the machine with the daemon it measures. At
	// the default GC percent its collector ran several times a second over
	// the decoded answers of scan_load and took the daemon's CPU: p95 there
	// was a fifth higher and a third noisier. The generator's live heap is
	// small, so it can afford to collect rarely.
	debug.SetGCPercent(400)
	h, err := newHarness()
	fatalIf(err)
	switch {
	case selfcheck:
		err = h.runSelfcheck(cfg)
	case cfg.smoke:
		err = h.runSmoke(cfg)
	default:
		var res *result
		if res, err = h.runOne(cfg); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	fatalIf(err)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// harness is what every run of one process shares: the checkout, the
// directory build outputs and run files go to, and the daemon built once.
type harness struct {
	root, build, bin string
}

// newHarness locates the checkout and builds ./cmd/disclosured from it.
func newHarness() (*harness, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, build: filepath.Join(root, ".bench_build")}
	if h.bin, err = buildDaemon(root, h.build); err != nil {
		return nil, err
	}
	return h, nil
}

// runOne performs one run of one workload and returns its result:
// end-to-end metrics with tracing off, per-layer metrics with it on.
func (h *harness) runOne(cfg config) (*result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.smoke {
		sp = sp.smoke()
	}
	work, err := os.MkdirTemp(h.build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	in, err := buildInputs(sp, cfg.seed, clientCount())
	if err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		m, err := measure(in, h.bin, work, dur, cfg.smoke)
		if err != nil {
			return nil, err
		}
		return m.result(m.endToEnd(), nil), nil
	}
	// With tracing on the time is split: the daemon's counters over one
	// half, the in-process traced replay over the other.
	m, err := measure(in, h.bin, work, dur/2, cfg.smoke)
	if err != nil {
		return nil, err
	}
	tr, err := replay(in, work, dur/2, filepath.Join(h.build, "spans-"+sp.name+".jsonl"))
	if err != nil {
		return nil, err
	}
	return m.result(m.perLayer(tr), tr), nil
}

// runSmoke runs all five workloads at toy size with the traced replay and
// prints one result line per workload.
func (h *harness) runSmoke(cfg config) error {
	cfg.trace = true
	if !flagSet("seconds") {
		cfg.seconds = 0.4
	}
	for _, sp := range specs {
		cfg.workload = sp.name
		res, err := h.runOne(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d checks failed", sp.name, res.Failed, res.Attempted)
		}
		fmt.Fprintf(os.Stderr, "smoke %-16s ok (%d checks)\n", sp.name, res.Attempted)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
	}
	return nil
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
