package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/server"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts its echo server.
func TestMain(m *testing.M) {
	if os.Getenv(echoEnv) != "" {
		fatalIf(runEcho())
		return
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// TestOverSegments plants one slow second in a five-second phase: a metric
// taken per segment, relative to the segment's null round trips, and
// reported as the mean of the middle segments must not see it.
func TestOverSegments(t *testing.T) {
	var recs []rec
	for i := 0; i < 5000; i++ {
		r := rec{end: time.Duration(i) * time.Millisecond, lat: 100 * time.Microsecond, ok: true, allowed: i%2 == 0}
		if i >= 2000 && i < 3000 {
			r.lat = 900 * time.Microsecond
		}
		if i%echoEvery == 0 {
			r.kind, r.lat = opEcho, 50*time.Microsecond
		}
		recs = append(recs, r)
	}
	l := collect([][]rec{recs, recs}, 5*time.Second)
	echoes := 2 * 1000 / echoEvery // per segment: two clients, one op per millisecond
	if len(l.segs) != segments || len(l.segs[2].submits) != 2000-echoes || len(l.segs[2].echoes) != echoes {
		t.Fatalf("segment 3 holds %d submits and %d echoes, want %d and %d",
			len(l.segs[2].submits), len(l.segs[2].echoes), 2000-echoes, echoes)
	}
	p50 := l.overSegments(func(s *segment, echo float64) float64 { return median(s.submits) / echo })
	tail := l.overSegments(func(s *segment, echo float64) float64 { return quantile(s.submits, 0.99) / echo })
	// Two clients at 100 us per submit complete 20000 submits per second of
	// submitting: one per null round trip of 50 us.
	rate := l.overSegments(func(s *segment, echo float64) float64 { return s.rate * echo / 1e6 })
	if p50 != 2 || tail != 2 || rate != 1 {
		t.Errorf("over segments: p50 %v p99 %v rate %v, want 2 2 1", p50, tail, rate)
	}
	if got := median(l.submits); got != 100 {
		t.Errorf("whole-run submit median %v, want 100", got)
	}
	if len(l.admits)+len(l.refusals) != len(l.submits) || len(l.echoes) != segments*echoes {
		t.Errorf("samples lost: %d admits + %d refusals of %d submits, %d echoes", len(l.admits), len(l.refusals), len(l.submits), len(l.echoes))
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] ⊃ roundtrip [0,40], pipeline [40,95] ⊃ parse [45,55], decide [55,90].
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.roundtrip", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "disclosure.pipeline", Start: 40, End: 95},
		{ID: 4, Parent: 3, Name: "cq.parse", Start: 45, End: 55},
		{ID: 5, Parent: 3, Name: "disclosure.decide", Start: 55, End: 90},
	}
	want := []time.Duration{5, 40, 10, 10, 35}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := &tracer{t0: time.Now(), op: 7}
	tr.begin("op")
	tr.begin("inner")
	tr.end()
	tr.end()
	tr.begin("next")
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 1 || tr.spans[2].Parent != 0 || tr.spans[0].Op != 7 {
		t.Errorf("unexpected span tree: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

// TestStreamDeterminism: the seed is the only workload argument, so the
// same seed must give the same streams and another seed other ones.
func TestStreamDeterminism(t *testing.T) {
	for _, sp := range specs {
		sp = sp.smoke()
		a, err := buildInputs(sp, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		b, err := buildInputs(sp, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		c, err := buildInputs(sp, 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		srcs := func(in *inputs) []string {
			var out []string
			for _, pool := range in.pools {
				for _, tpl := range pool {
					out = append(out, tpl.src)
				}
			}
			return out
		}
		if !slices.Equal(srcs(a), srcs(b)) {
			t.Errorf("%s: same seed, different pools", sp.name)
		}
		if slices.Equal(srcs(a), srcs(c)) {
			t.Errorf("%s: different seeds, same pools", sp.name)
		}
		if slices.Equal(srcs(a)[:sp.pool], srcs(a)[sp.pool:]) {
			t.Errorf("%s: clients 0 and 1 share a stream", sp.name)
		}
		if !slices.EqualFunc(a.loadBatch(1, 3), b.loadBatch(1, 3), func(x, y server.LoadRow) bool {
			return x.Rel == y.Rel && slices.Equal(x.Values, y.Values)
		}) {
			t.Errorf("%s: same seed, different load rows", sp.name)
		}
	}
}

// TestScanPoolIsAdmittedAndLarge checks the scan_load pre-filter.
func TestScanPoolIsAdmittedAndLarge(t *testing.T) {
	sp, _ := specByName("scan_load")
	sp.users, sp.pool = 300, 10
	in, err := buildInputs(sp, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range in.pools[0] {
		if err := in.reference(tpl); err != nil {
			t.Fatal(err)
		}
		if tpl.dom == 0 || len(tpl.rows) < sp.minRows || len(tpl.rows) > sp.maxRows {
			t.Errorf("%s: dom=%b rows=%d does not belong in the scan pool", tpl.src, tpl.dom, len(tpl.rows))
		}
	}
}

// TestModelChineseWall walks the model through the four outcomes the
// durable_wall workload names.
func TestModelChineseWall(t *testing.T) {
	profile, media, both, top := &template{dom: 0b100}, &template{dom: 0b001}, &template{dom: 0b101}, &template{}
	m := newModel(3, 4)
	step := func(i int, tpl *template, want bool, live uint64, transitions int) {
		t.Helper()
		if got := m.submit(i, tpl); got != want || m.live != live || m.transitions != transitions {
			t.Errorf("submit(%d) = %v live=%03b transitions=%d, want %v live=%03b transitions=%d",
				i, got, m.live, m.transitions, want, live, transitions)
		}
	}
	step(3, top, false, 0b111, 0)    // refused at ⊤: no partition dominates
	step(2, both, true, 0b101, 1)    // transition admit: retires one side
	step(0, profile, true, 0b100, 2) // transition admit: retires another
	step(0, profile, true, 0b100, 2) // no-change admit
	step(1, media, false, 0b100, 2)  // wall refusal: only a retired side dominates
	step(2, both, true, 0b100, 2)    // still under the surviving side
	m.reset()
	step(1, media, true, 0b001, 3) // a re-installed policy forgets the wall
}

// TestModelAgreesWithMonitor drives the model and the library's
// policy.Monitor with the same random sequence over the wall policy.
func TestModelAgreesWithMonitor(t *testing.T) {
	sp, _ := specByName("durable_wall")
	sp = sp.smoke()
	sp.pool = 200
	in, err := buildInputs(sp, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New(in.cat, in.parts)
	if err != nil {
		t.Fatal(err)
	}
	pool := in.pools[0]
	rng := rand.New(rand.NewSource(1))
	admits, refusals := 0, 0
	for session := 0; session < 20; session++ {
		mon, m := policy.NewMonitor(pol), newModel(len(in.partNames), len(pool))
		for n := 0; n < 100; n++ {
			i := rng.Intn(len(pool))
			if err := in.label(pool[i]); err != nil {
				t.Fatal(err)
			}
			dec := mon.Submit(pool[i].lbl)
			if got := m.submit(i, pool[i]); got != dec.Allowed {
				t.Fatalf("session %d op %d %s: model %v, monitor %v", session, n, pool[i].src, got, dec.Allowed)
			}
			if got := m.liveNames(in.partNames); !slices.Equal(got, dec.Live) {
				t.Fatalf("session %d op %d: model live %v, monitor live %v", session, n, got, dec.Live)
			}
			if dec.Allowed {
				admits++
			} else {
				refusals++
			}
		}
		if got, want := m.cum.Render(in.cat), mon.Cumulative().Render(in.cat); got != want {
			t.Fatalf("session %d: model cumulative %q, monitor %q", session, got, want)
		}
	}
	if admits == 0 || refusals == 0 {
		t.Errorf("the wall stream has %d admits and %d refusals; it should mix both", admits, refusals)
	}
}

// TestWallPartitionsCoverCatalog: every security view sits in a partition
// and the friend-list views sit in all three.
func TestWallPartitionsCoverCatalog(t *testing.T) {
	sp, _ := specByName("durable_wall")
	in, err := buildInputs(sp.smoke(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, views := range in.parts {
		for _, v := range views {
			seen[v]++
		}
	}
	for _, v := range in.views {
		want := 1
		if v.Name == "friend_list" || v.Name == "friend_since" {
			want = 3
		}
		if seen[v.Name] != want {
			t.Errorf("view %s is in %d partitions, want %d", v.Name, seen[v.Name], want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the workload table
// and the two metric sets from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	decl, err := readDecl(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}

	m := &measurement{in: &inputs{}}
	check := func(kind string, decls []metricDecl, got map[string]metric) {
		var declared, printed []string
		for _, d := range decls {
			declared = append(declared, d.Name)
			if g, ok := got[d.Name]; ok && g.Unit != d.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json says unit %q, code prints %q", kind, d.Name, d.Unit, g.Unit)
			}
		}
		for name := range got {
			printed = append(printed, name)
		}
		sort.Strings(declared)
		sort.Strings(printed)
		if !slices.Equal(declared, printed) {
			t.Errorf("%s metrics differ:\n BENCHMARK.json: %v\n code:           %v", kind, declared, printed)
		}
	}
	check("end_to_end", decl.EndToEnd, m.endToEnd())
	check("per_layer", decl.PerLayer, m.perLayer(&traceReport{}))
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs all five workloads end to end at toy size — real daemon,
// crash and recovery, follower, traced replay — so a change to the public
// surface the benchmark calls fails tier-1 instead of the next measurement.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		res, err := h.runOne(config{workload: sp.name, seed: 5, seconds: 0.3, trace: true, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed", sp.name, res.Failed, res.Attempted)
		}
		if res.Metrics["trace.spans"].Value == 0 {
			t.Errorf("%s: the traced replay recorded no spans", sp.name)
		}
	}
}
