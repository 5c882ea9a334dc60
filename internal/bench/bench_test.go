package bench

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/workload"
)

func TestRunFigure5Small(t *testing.T) {
	cfg := Figure5Config{Queries: 200, MaxAtoms: []int{3, 6}, Seed: 1}
	series, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points, want 2", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.SecondsPer1M <= 0 {
				t.Errorf("series %s: nonpositive time at x=%d", s.Name, p.X)
			}
		}
	}
	out := FormatSeries("Figure 5", "max atoms per query", series)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "bit vectors + hashing") {
		t.Errorf("format output missing series:\n%s", out)
	}
	tsv := FormatTSV(series)
	if !strings.Contains(tsv, "hashing only\t3\t") {
		t.Errorf("TSV output malformed:\n%s", tsv)
	}
}

func TestRunFigure5Validation(t *testing.T) {
	if _, err := RunFigure5(Figure5Config{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := RunFigure5(Figure5Config{Queries: 10, MaxAtoms: []int{4}}); err == nil {
		t.Error("non-multiple-of-3 MaxAtoms accepted")
	}
}

func TestRunFigure6Small(t *testing.T) {
	cfg := Figure6Config{
		Labels:        500,
		LabelPool:     100,
		Principals:    []int{50},
		MaxPartitions: []int{1, 5},
		MaxElems:      []int{5, 20},
		Seed:          3,
	}
	series, err := RunFigure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points", s.Name, len(s.Points))
		}
	}
	if series[0].Name != "1-way, 50 users" {
		t.Errorf("series name = %q", series[0].Name)
	}
}

// TestCompactCheckerMatchesMonitor cross-validates the flat benchmark
// policy checker against the reference policy.Monitor on identical inputs.
func TestCompactCheckerMatchesMonitor(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const principals = 20
	cp, err := buildPolicies(cat, rng, principals, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the same policies as reference monitors by replaying the
	// compact structures.
	views := cat.Views()
	_ = views
	monitors := make([]*policy.Monitor, principals)
	for p := 0; p < principals; p++ {
		first := cp.prinPart[p]
		n := int(cp.prinNPart[p])
		labels := make([]label.Label, 0, n)
		for k := 0; k < n; k++ {
			pi := first + int32(k)
			start := int32(0)
			if pi > 0 {
				start = cp.partEnd[pi-1]
			}
			var atoms []label.AtomLabel
			for i := start; i < cp.partEnd[pi]; i++ {
				atoms = append(atoms, label.AtomLabel{Packed: cp.masks[i]})
			}
			labels = append(labels, label.Label{Atoms: atoms})
		}
		pol, err := policy.FromLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		monitors[p] = policy.NewMonitor(pol)
	}
	// Replay a labeled workload through both.
	gen := workload.MustNew(fb.Schema(), workload.Options{Seed: 5, MaxSubqueries: 1, FriendScopesMarkIsFriend: true})
	labeler := label.NewLabeler(cat)
	for i := 0; i < 2000; i++ {
		q := gen.Next()
		lbl, err := labeler.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		atoms := make([]uint64, 0, len(lbl.Atoms))
		ok := true
		for _, a := range lbl.Atoms {
			if len(a.Spill) != 0 {
				ok = false
				break
			}
			atoms = append(atoms, a.Packed)
		}
		if !ok {
			continue
		}
		p := rng.Intn(principals)
		gotCompact := cp.check(int32(p), atoms)
		gotMonitor := monitors[p].Submit(lbl).Allowed
		if gotCompact != gotMonitor {
			t.Fatalf("decision mismatch for principal %d on %s: compact=%v monitor=%v",
				p, q, gotCompact, gotMonitor)
		}
	}
}

func TestCompactReset(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cp, err := buildPolicies(cat, rng, 5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint8(nil), cp.live...)
	// Force liveness updates by issuing an unsatisfiable then satisfiable
	// stream; simplest: clobber and reset.
	for i := range cp.live {
		cp.live[i] = 0
	}
	cp.reset()
	for i := range cp.live {
		if cp.live[i] != before[i] {
			t.Fatal("reset did not restore liveness")
		}
	}
	if _, err := buildPolicies(cat, rng, 1, 9, 5); err == nil {
		t.Error("more than 8 partitions accepted by compact store")
	}
}

func TestSpeedup(t *testing.T) {
	slow := Series{Points: []Point{{X: 3, SecondsPer1M: 9}, {X: 6, SecondsPer1M: 12}}}
	fast := Series{Points: []Point{{X: 3, SecondsPer1M: 3}, {X: 6, SecondsPer1M: 4}}}
	s := Speedup(slow, fast)
	if len(s) != 2 || s[0] != 3 || s[1] != 3 {
		t.Errorf("Speedup = %v", s)
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int]string{1000: "1K", 50000: "50K", 1000000: "1M", 37: "37"}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRunFootnote3Small(t *testing.T) {
	series, err := RunFootnote3(Footnote3Config{
		Queries:          300,
		Relations:        []int{4, 20},
		ViewsPerRelation: 3,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.SecondsPer1M <= 0 {
				t.Errorf("series %s: nonpositive time", s.Name)
			}
		}
	}
	if _, err := RunFootnote3(Footnote3Config{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
}

func TestRunEngineSmall(t *testing.T) {
	series, err := RunEngine(EngineConfig{
		Queries:    200,
		Users:      []int{20, 40},
		MaxAtoms:   6,
		Pool:       50,
		Goroutines: []int{1, 2},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 { // {planned, reference} × {1, 2} goroutines
		t.Fatalf("got %d series, want 4", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.SecondsPer1M <= 0 {
				t.Errorf("series %s: nonpositive time", s.Name)
			}
		}
	}
	if _, err := RunEngine(EngineConfig{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := RunEngine(EngineConfig{Queries: 1, Pool: 1, MaxAtoms: 4}); err == nil {
		t.Error("non-multiple-of-3 MaxAtoms accepted")
	}
}

func TestRunEngineLargeAnswerSmall(t *testing.T) {
	series, err := RunEngineLargeAnswer(60, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Points) != 1 || len(series[1].Points) != 1 {
		t.Fatalf("got %+v, want one point for each of planned and reference", series)
	}
	if rows := series[0].Points[0].X; rows < 2 || rows != series[1].Points[0].X {
		t.Errorf("planned answered %d rows, reference %d; want the same few", rows, series[1].Points[0].X)
	}
	if _, err := RunEngineLargeAnswer(0, 1, 5); err == nil {
		t.Error("zero users accepted")
	}
}
