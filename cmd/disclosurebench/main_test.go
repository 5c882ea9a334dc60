package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench builds the command once per test into a temp dir.
func buildBench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a child process; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "disclosurebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building disclosurebench: %v\n%s", err, out)
	}
	return bin
}

// TestMainUnknownExperiment: an unknown -exp must exit non-zero and name
// every experiment, so the error message cannot drift from the switch; and
// the daemon experiments the repository benchmark superseded are unknown.
func TestMainUnknownExperiment(t *testing.T) {
	bin := buildBench(t)
	retired := []string{"serve", "wal", "shard", "repl", "obs", "failover", "adversarial", "cached"}
	for _, bad := range append([]string{"bogus"}, retired...) {
		// Toy sizes, so a name that is wrongly accepted fails fast instead
		// of running a million-query experiment.
		out, err := exec.Command(bin, "-exp", bad, "-queries", "1", "-labels", "1").CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("-exp %s: err = %v, want exit code 1\n%s", bad, err, out)
		}
		msg := string(out)
		if !strings.Contains(msg, `unknown experiment "`+bad+`"`) {
			t.Errorf("error does not name the bad experiment %q:\n%s", bad, msg)
		}
		_, list, _ := strings.Cut(msg, "(want ")
		for _, exp := range []string{"figure5", "figure6", "footnote3", "engine"} {
			if !strings.Contains(list, exp) {
				t.Errorf("error does not list experiment %q:\n%s", exp, msg)
			}
		}
		for _, exp := range retired {
			if strings.Contains(list, exp) {
				t.Errorf("error lists retired experiment %q:\n%s", exp, msg)
			}
		}
	}
}

// TestMainExperimentsJSON runs every experiment at toy size through the
// real command line and checks that -json emits the archive shape.
func TestMainExperimentsJSON(t *testing.T) {
	bin := buildBench(t)
	cases := []struct {
		exp    string
		args   []string
		series int
	}{
		{"figure5", []string{"-queries", "200", "-max-atoms", "3,6"}, 4},
		{"figure6", []string{"-labels", "500", "-label-pool", "100", "-principals", "50", "-partitions", "1,5", "-max-elems", "5,20"}, 2},
		{"footnote3", []string{"-queries", "200"}, 2},
		// {planned, reference} × two goroutine counts, plus the large-answer pair.
		{"engine", []string{"-queries", "200", "-users", "20,40", "-goroutines", "1,2", "-pool", "50"}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.exp, func(t *testing.T) {
			args := append([]string{"-exp", tc.exp, "-json"}, tc.args...)
			out, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			var doc struct {
				Experiment string
				Series     []struct {
					Name   string
					Points []json.RawMessage
				}
			}
			if err := json.Unmarshal(out, &doc); err != nil {
				t.Fatalf("output does not parse: %v\n%s", err, out)
			}
			if doc.Experiment != tc.exp || len(doc.Series) != tc.series {
				t.Fatalf("got experiment %q with %d series, want %q with %d", doc.Experiment, len(doc.Series), tc.exp, tc.series)
			}
			for _, s := range doc.Series {
				if s.Name == "" || len(s.Points) == 0 {
					t.Errorf("series %q has %d points", s.Name, len(s.Points))
				}
			}
		})
	}
}
