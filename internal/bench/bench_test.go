package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/obs"
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

// TestRunFigure6Small runs Figure 6 at toy size, 12 partitions included:
// every point decides through the policy store, both ways, and carries
// its memory cost.
func TestRunFigure6Small(t *testing.T) {
	cfg := Figure6Config{
		Labels:        500,
		Principals:    []int{50},
		MaxPartitions: []int{1, 5, 12},
		MaxElems:      []int{5, 20},
		Seed:          3,
	}
	series, err := RunFigure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series, want 3", len(series))
	}
	admitted, refused := 0, 0
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.SecondsPer1M <= 0 || p.BytesPerPrincipal <= 0 || p.BytesPerPolicy <= 0 {
				t.Errorf("series %s at x=%d: %+v, want positive time and bytes", s.Name, p.X, p)
			}
			admitted += p.Admitted
			refused += p.QueriesTimed - p.Admitted
		}
	}
	if admitted == 0 || refused == 0 {
		t.Errorf("%d labels admitted and %d refused, want some of each", admitted, refused)
	}
	if series[0].Name != "1-way, 50 users" || series[2].Name != "12-way, 50 users" {
		t.Errorf("series names = %q … %q", series[0].Name, series[2].Name)
	}
	if tsv := FormatTSV(series); !strings.Contains(tsv, "\tbytes_per_principal\tbytes_per_policy\n") {
		t.Errorf("TSV header lacks the memory columns:\n%s", tsv)
	}
}

func TestRunFigure6Validation(t *testing.T) {
	valid := Figure6Config{Labels: 10, Principals: []int{5}, MaxPartitions: []int{2}, MaxElems: []int{3}}
	for name, edit := range map[string]func(*Figure6Config){
		"zero labels":        func(c *Figure6Config) { c.Labels = 0 },
		"zero principals":    func(c *Figure6Config) { c.Principals = []int{5, 0} },
		"negative partition": func(c *Figure6Config) { c.MaxPartitions = []int{-1} },
		"zero elements":      func(c *Figure6Config) { c.MaxElems = []int{0} },
		"no principals":      func(c *Figure6Config) { c.Principals = nil },
		"no partitions":      func(c *Figure6Config) { c.MaxPartitions = nil },
		"no elements":        func(c *Figure6Config) { c.MaxElems = nil },
	} {
		cfg := valid
		edit(&cfg)
		if _, err := RunFigure6(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := RunFigure6(valid); err != nil {
		t.Errorf("valid config refused: %v", err)
	}
}

// BenchmarkFigure6 times one decision through the store Figure 6 builds —
// the daemon's policy.ConcurrentStore — over 1 000 principals.
func BenchmarkFigure6(b *testing.B) {
	cat, err := fb.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	pool, err := figure6Labels(cat, 7, 2000)
	if err != nil {
		b.Fatal(err)
	}
	for _, nPart := range []int{1, 5} {
		for _, maxElems := range []int{5, 25, 50} {
			b.Run(fmt.Sprintf("partitions=%d/maxElems=%d", nPart, maxElems), func(b *testing.B) {
				rng := rand.New(rand.NewSource(11))
				fs, err := newFigure6Store(cat, rng, 1000, nPart, maxElems)
				if err != nil {
					b.Fatal(err)
				}
				assign := make([]int32, 1<<16)
				for i := range assign {
					assign[i] = int32(rng.Intn(len(fs.names)))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fs.store.Submit(fs.names[assign[i&(1<<16-1)]], pool[i%len(pool)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(fs.bytesPerPrincipal, "B/principal")
			})
		}
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

// TestStaleSnapshotExecutes reads the engine's answer counters to check
// that every evaluation at the snapshot StaleSnapshot returns executes in
// full, so the executor cells built on it — BenchmarkEngineEval,
// BenchmarkEvalLargeAnswer/executed and /reference, and
// BenchmarkAnswerPath — measure what their names say: a workload pool,
// isomorphic queries among them, and fb.LargeAnswerQuery, evaluated three
// times over.
func TestStaleSnapshotExecutes(t *testing.T) {
	db := engine.NewDatabase(fb.Schema())
	if err := fb.GenerateGraph(db, 200, 5); err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(fb.Schema(), workload.Options{Seed: 5, MaxSubqueries: 2, FriendScopesMarkIsFriend: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := append(w.Batch(60), cq.MustParse(fb.LargeAnswerQuery))
	stale, err := StaleSnapshot(db, qs...)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"reused", "delta", "executed"}
	counts := func() (c []uint64) {
		for _, path := range paths {
			c = append(c, obs.Default.Counter("disclosure_engine_answers_total", "", "path", path).Value())
		}
		return c
	}
	before := counts()
	for pass := 0; pass < 3; pass++ {
		for _, q := range qs {
			if _, err := db.EvalAt(stale, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := counts()
	for i, path := range paths {
		want := before[i]
		if path == "executed" {
			want += uint64(3 * len(qs))
		}
		if after[i] != want {
			t.Errorf("%d evaluations at the stale snapshot answered %s, want %d", after[i]-before[i], path, want-before[i])
		}
	}
}
