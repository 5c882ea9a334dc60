package disclosure

// Benchmarks regenerating the paper's evaluation, one family per table or
// figure:
//
//   - BenchmarkFigure5/*: disclosure-labeler throughput (Section 7.2,
//     Figure 5) — per-query labeling cost for each variant at each
//     max-atoms setting. Multiply ns/op by 1e6 to compare with the paper's
//     "time to analyze a million queries".
//   - BenchmarkFigure6/*: policy-checker throughput (Figure 6) — per-label
//     policy decisions including consistency-bit updates.
//   - BenchmarkTable2Audit: the FQL/Graph-API documentation audit
//     (Section 7.1, Table 2).
//
// The cmd/disclosurebench tool runs the figure experiments at the paper's
// full scale and prints the figure series; the daemon around them is
// measured by the repository benchmark (go run ./benchmark).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/fql"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/unify"
	"repro/internal/workload"
)

func fbCatalog(b *testing.B) *label.Catalog {
	b.Helper()
	cat, err := fb.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

func pregenerate(b *testing.B, maxAtoms, n int) []*cq.Query {
	b.Helper()
	g, err := workload.New(fb.Schema(), workload.Options{
		Seed:                     2013,
		MaxSubqueries:            maxAtoms / 3,
		FriendScopesMarkIsFriend: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g.Batch(n)
}

func BenchmarkFigure5(b *testing.B) {
	cat := fbCatalog(b)
	variants := []struct {
		name string
		mk   func() label.Labeler
	}{
		{"baseline", func() label.Labeler { return label.NewBaselineLabeler(cat) }},
		{"hashing", func() label.Labeler { return label.NewHashedLabeler(cat) }},
		{"bitvec+hashing", func() label.Labeler { return label.NewLabeler(cat) }},
	}
	for _, atoms := range []int{3, 9, 15} {
		qs := pregenerate(b, atoms, 5000)
		b.Run(fmt.Sprintf("generation-only/atoms=%d", atoms), func(b *testing.B) {
			g, _ := workload.New(fb.Schema(), workload.Options{
				Seed: 2013, MaxSubqueries: atoms / 3, FriendScopesMarkIsFriend: true,
			})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Next()
			}
		})
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/atoms=%d", v.name, atoms), func(b *testing.B) {
				l := v.mk()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := l.Label(qs[i%len(qs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	cat := fbCatalog(b)
	labeler := label.NewLabeler(cat)
	g, err := workload.New(fb.Schema(), workload.Options{
		Seed: 7, MaxSubqueries: 1, FriendScopesMarkIsFriend: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]label.Label, 20000)
	for i := range pool {
		lbl, err := labeler.Label(g.Next())
		if err != nil {
			b.Fatal(err)
		}
		pool[i] = lbl
	}
	views := cat.Views()
	viewNames := make([]string, len(views))
	for i, v := range views {
		viewNames[i] = v.Name
	}
	for _, nPart := range []int{1, 5} {
		for _, maxElems := range []int{5, 25, 50} {
			b.Run(fmt.Sprintf("partitions=%d/maxElems=%d", nPart, maxElems), func(b *testing.B) {
				rng := rand.New(rand.NewSource(11))
				const principals = 1000
				monitors := make([]*policy.Monitor, principals)
				for p := range monitors {
					parts := make(map[string][]string, nPart)
					for k := 0; k < 1+rng.Intn(nPart); k++ {
						n := 1 + rng.Intn(maxElems)
						sel := make([]string, n)
						for e := range sel {
							sel[e] = viewNames[rng.Intn(len(viewNames))]
						}
						parts[fmt.Sprintf("W%d", k)] = sel
					}
					pol, err := policy.New(cat, parts)
					if err != nil {
						b.Fatal(err)
					}
					monitors[p] = policy.NewMonitor(pol)
				}
				assign := make([]int32, 1<<16)
				for i := range assign {
					assign[i] = int32(rng.Intn(principals))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := monitors[assign[i&(1<<16-1)]]
					m.Submit(pool[i%len(pool)])
				}
			})
		}
	}
}

// BenchmarkCachedLabeler measures memoized labeling against the uncached
// optimized labeler over a repeated Figure-5 workload (a bounded template
// pool replayed round-robin — the app-ecosystem regime). The PR's
// acceptance bar is cached ≥ 3× uncached at the same max-atoms setting.
func BenchmarkCachedLabeler(b *testing.B) {
	cat := fbCatalog(b)
	for _, atoms := range []int{3, 9, 15} {
		qs := pregenerate(b, atoms, 2000)
		variants := []struct {
			name string
			mk   func() label.Labeler
		}{
			{"uncached", func() label.Labeler { return label.NewLabeler(cat) }},
			{"cached", func() label.Labeler { return label.NewCachedLabeler(label.NewLabeler(cat), 8192) }},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/atoms=%d", v.name, atoms), func(b *testing.B) {
				l := v.mk()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := l.Label(qs[i%len(qs)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			})
		}
	}
}

// benchSystem builds a System over the Facebook schema with the full
// security-view catalog, one all-views policy per principal, and a
// 300-user social graph, so the evaluation stage measures real joins
// rather than empty-table scans.
func benchSystem(b *testing.B, principals []string) *System {
	b.Helper()
	cat := fbCatalog(b)
	views := cat.Views()
	sys, err := NewSystem(fb.Schema(), views...)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.Name
	}
	for _, p := range principals {
		if err := sys.SetPolicy(p, map[string][]string{"granted": names}); err != nil {
			b.Fatal(err)
		}
	}
	// Size the cache comfortably above the benchmark's template pool so the
	// steady state measures warm hits, not shard-overflow eviction.
	sys.labeler = label.NewCachedLabeler(label.NewLabeler(sys.cat), 1<<14)
	if err := sys.LoadBatch(func(ld *Loader) error {
		return fb.GenerateGraph(ld, 300, 2013)
	}); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkSystemSubmit measures end-to-end submission throughput (label →
// policy decision → evaluation) at 1, 4 and 16 goroutines over 64
// principals, with the label cache warm after the first pool pass.
func BenchmarkSystemSubmit(b *testing.B) {
	principals := make([]string, 64)
	for i := range principals {
		principals[i] = fmt.Sprintf("app%d", i)
	}
	qs := pregenerate(b, 9, 4096)
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			sys := benchSystem(b, principals)
			var next atomic.Int64
			var failed atomic.Bool
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						if _, _, err := sys.Submit(principals[i&63], qs[i%len(qs)]); err != nil {
							failed.Store(true)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() {
				b.Fatal("Submit returned an error")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkSystemSubmitBatch measures the three-stage batch pipeline.
func BenchmarkSystemSubmitBatch(b *testing.B) {
	sys := benchSystem(b, []string{"app"})
	qs := pregenerate(b, 9, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range sys.SubmitBatch("app", qs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "queries/sec")
}

func BenchmarkTable2Audit(b *testing.B) {
	fqlDocs, graphDocs, ground := fb.FQLDocs(), fb.GraphDocs(), fb.GroundTruth()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		incs := fb.Audit(fqlDocs, graphDocs, ground)
		if len(incs) != 6 {
			b.Fatalf("audit found %d inconsistencies", len(incs))
		}
	}
}

// Micro-benchmarks for the core primitives.

func BenchmarkDissect(b *testing.B) {
	q := cq.MustParse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := label.Dissect(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGLBSingleton(b *testing.B) {
	v6 := cq.MustParse("V6(x, y) :- C(x, y, z)")
	v7 := cq.MustParse("V7(x, z) :- C(x, y, z)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := unify.GLBSingleton(v6, v7, "G"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainment(b *testing.B) {
	p3 := cq.MustParse("Q(x) :- R(x, y), R(y, z), R(z, w)")
	p2 := cq.MustParse("Q(x) :- R(x, y), R(y, z)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !cq.ContainedIn(p3, p2) {
			b.Fatal("containment broken")
		}
	}
}

func BenchmarkLabelCompare(b *testing.B) {
	cat := fbCatalog(b)
	l := label.NewLabeler(cat)
	q1, err := l.Label(cq.MustParse("Q(b) :- user(" + benchUserArgs("uid", "'me'", "birthday", "b") + ")"))
	if err != nil {
		b.Fatal(err)
	}
	q2, err := label.LabelViews(cat, []*cq.Query{cat.ViewByName("user_birthday")})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !q1.BelowEq(q2) {
			b.Fatal("comparison broken")
		}
	}
}

func BenchmarkFQLCompile(b *testing.B) {
	s := fb.Schema()
	src := "SELECT birthday FROM user WHERE is_friend = 1 AND uid IN (SELECT uid2 FROM friend WHERE uid = me())"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fql.Compile(s, "Q", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitorSubmit(b *testing.B) {
	cat := fbCatalog(b)
	pol, err := policy.New(cat, map[string][]string{
		"W1": {"user_basic", "user_birthday", "friend_list"},
		"W2": {"likes_self", "likes_friends"},
	})
	if err != nil {
		b.Fatal(err)
	}
	l := label.NewLabeler(cat)
	lbl, err := l.Label(cq.MustParse("Q(b) :- user(" + benchUserArgs("uid", "'me'", "birthday", "b") + ")"))
	if err != nil {
		b.Fatal(err)
	}
	m := policy.NewMonitor(pol)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Submit(lbl)
	}
}

// BenchmarkEngineEval compares the compiled-plan executor against the
// retained pre-refactor evaluator (EvalReference) on a join over the
// Meetings/Contacts schema: same database, same query, same results.
func BenchmarkEngineEval(b *testing.B) {
	db := engine.NewDatabase(MustSchema(
		MustRelation("Meetings", "time", "person"),
		MustRelation("Contacts", "person", "email", "position"),
	))
	err := db.Load(func(ld *Loader) error {
		for i := 0; i < 100; i++ {
			ld.MustInsert("Meetings", fmt.Sprint(i%24), fmt.Sprintf("p%d", i))
			ld.MustInsert("Contacts", fmt.Sprintf("p%d", i), fmt.Sprintf("e%d", i), "Intern")
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	q := MustParse("Q(t) :- Meetings(t, p), Contacts(p, e, 'Intern')")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Eval(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The daemon's call: cached-plan evaluation out of the pooled arenas to
	// an answer of interned ids, at 1 alloc/op (preparation and snapshot are
	// hoisted, as a warm Submit loop effectively does).
	b.Run("planned-ids", func(b *testing.B) {
		pq := cq.PrepareQuery(q)
		snap := db.Snapshot()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.EvalCanonicalAt(snap, pq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.EvalReference(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalLargeAnswer measures answer delivery rather than matching:
// over the facebook preset at the scan_load workload's 2000 users, one
// cached plan, one ≈ 640-row answer deduplicated, ordered and copied out as
// ids per iteration (information, not a gate; BenchmarkAnswerPath in
// internal/server carries it on through the encoder and the client).
func BenchmarkEvalLargeAnswer(b *testing.B) {
	db := engine.NewDatabase(fb.Schema())
	if err := fb.GenerateGraph(db, 2000, 2013); err != nil {
		b.Fatal(err)
	}
	q := MustParse(fb.LargeAnswerQuery)
	rows, err := db.Eval(q)
	if err != nil || len(rows) < 300 {
		b.Fatalf("large answer has %d rows (err %v), want ≈ 640", len(rows), err)
	}
	pq := cq.PrepareQuery(q)
	snap := db.Snapshot()
	var ans engine.Answer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ans, err = db.EvalCanonicalAt(snap, pq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ans.Len()), "rows")
}

// benchUserArgs renders a user(...) argument list with the given attribute
// bindings and existentials elsewhere.
func benchUserArgs(bind ...string) string {
	m := make(map[string]string, len(bind)/2)
	for i := 0; i+1 < len(bind); i += 2 {
		m[bind[i]] = bind[i+1]
	}
	out := ""
	for i, a := range fb.UserAttrs {
		if i > 0 {
			out += ", "
		}
		if v, ok := m[a]; ok {
			out += v
		} else {
			out += "e_" + a
		}
	}
	return out
}
