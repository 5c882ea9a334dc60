package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declFile is the part of BENCHMARK.json the benchmark itself reads.
type declFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// readDecl loads BENCHMARK.json.
func readDecl(path string) (*declFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declFile
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// runSelfcheck is the -selfcheck mode: the full set of workloads twice,
// back to back, on the same code and seed, tracing off. It prints every
// end-to-end metric's relative difference between the two sets beside the
// bound BENCHMARK.json gives it and fails if any difference exceeds its
// bound or any check against the oracle failed: a benchmark that cannot
// agree with itself cannot judge a change.
func (h *harness) runSelfcheck(cfg config) error {
	decl, err := readDecl(filepath.Join(h.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if !flagSet("seconds") {
		cfg.seconds = float64(decl.RunSeconds)
	}
	cfg.trace = false
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = make(map[string]*result)
		for _, sp := range specs {
			cfg.workload = sp.name
			res, err := h.runOne(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			fmt.Fprintf(os.Stderr, "selfcheck set %d %-16s done (%d checks, %d failed)\n", i+1, sp.name, res.Attempted, res.Failed)
			sets[i][sp.name] = res
		}
	}
	bad := 0
	fmt.Printf("%-16s %-14s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, sp := range specs {
		a, b := sets[0][sp.name], sets[1][sp.name]
		if a.Failed+b.Failed > 0 {
			bad++
			fmt.Printf("%-16s %d and %d checks against the oracle FAILED\n", sp.name, a.Failed, b.Failed)
		}
		for _, d := range decl.EndToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := ""
			if !(diff <= d.Bound) {
				bad++
				verdict = "  EXCEEDS"
			}
			fmt.Printf("%-16s %-14s %14.5g %14.5g %7.2f%% %7.2f%%%s\n", sp.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) or workload(s) outside their bounds", bad)
	}
	return nil
}
