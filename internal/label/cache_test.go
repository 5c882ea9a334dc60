package label_test

// External test package: the differential tests draw queries from
// internal/workload, which depends (through internal/fb) on this package.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

func testCatalog(t testing.TB) *label.Catalog {
	t.Helper()
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func workloadQueries(t testing.TB, seed int64, maxAtoms, n int) []*cq.Query {
	t.Helper()
	g, err := workload.New(fb.Schema(), workload.Options{
		Seed:                     seed,
		MaxSubqueries:            maxAtoms / 3,
		FriendScopesMarkIsFriend: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}

// TestCachedLabelerDifferential: the cached labeler must agree with the
// baseline LabelGen adaptation on every workload query — both on cold
// misses and on warm hits (the second pass re-labels the same queries).
func TestCachedLabelerDifferential(t *testing.T) {
	cat := testCatalog(t)
	baseline := label.NewBaselineLabeler(cat)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)

	qs := workloadQueries(t, 2013, 9, 600)
	for pass := 0; pass < 2; pass++ {
		for i, q := range qs {
			want, err := baseline.Label(q)
			if err != nil {
				t.Fatalf("pass %d query %d (%s): baseline: %v", pass, i, q, err)
			}
			got, err := cached.Label(q)
			if err != nil {
				t.Fatalf("pass %d query %d (%s): cached: %v", pass, i, q, err)
			}
			if !got.EquivTo(want) {
				t.Fatalf("pass %d query %d: label mismatch for %s:\n  cached   %s\n  baseline %s",
					pass, i, q, got.Render(cat), want.Render(cat))
			}
		}
	}
	st := cached.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits after re-labeling the same queries: %s", st)
	}
	if st.Misses == 0 || st.Misses > uint64(len(qs)) {
		t.Fatalf("unexpected miss count: %s", st)
	}
}

// TestCachedLabelerIsomorphHit: isomorphic queries (renamed variables,
// shuffled atoms) share one cache entry.
func TestCachedLabelerIsomorphHit(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)

	q1 := cq.MustParse("Q(n) :- friend('me', f, s), likes(f, p, n, '1')")
	q2 := cq.MustParse("P(m) :- likes(g, r, m, '1'), friend('me', g, w)")
	l1, err := cached.Label(q1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := cached.Label(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !l1.EquivTo(l2) {
		t.Fatalf("isomorphic queries labeled differently:\n  %s\n  %s", l1.Render(cat), l2.Render(cat))
	}
	st := cached.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want 1 hit + 1 miss for an isomorphic pair, got %s", st)
	}
}

// TestCachedLabelerEviction: the cache never holds more entries than its
// capacity, and eviction keeps it functional (labels stay correct).
func TestCachedLabelerEviction(t *testing.T) {
	cat := testCatalog(t)
	const capacity = 64
	cached := label.NewCachedLabeler(label.NewLabeler(cat), capacity)
	uncached := label.NewLabeler(cat)

	qs := workloadQueries(t, 99, 9, 500)
	for _, q := range qs {
		got, err := cached.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncached.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EquivTo(want) {
			t.Fatalf("label mismatch after eviction for %s", q)
		}
	}
	st := cached.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("cache overflow: %s", st)
	}
	if st.Capacity < capacity {
		t.Fatalf("capacity %d below requested %d", st.Capacity, capacity)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with capacity %d over %d queries: %s", capacity, len(qs), st)
	}
}

// TestCachedLabelerConcurrent hammers one cache from many goroutines over a
// shared query pool; run with -race. Every result is checked against a
// precomputed expectation.
func TestCachedLabelerConcurrent(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 256)
	uncached := label.NewLabeler(cat)

	qs := workloadQueries(t, 7, 6, 200)
	want := make([]label.Label, len(qs))
	for i, q := range qs {
		lbl, err := uncached.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = lbl
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (g*53 + rep) % len(qs)
				got, err := cached.Label(qs[i])
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if !got.EquivTo(want[i]) {
					errc <- fmt.Errorf("goroutine %d: label mismatch for %s", g, qs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := cached.Stats()
	if st.Hits+st.Misses != goroutines*50 {
		t.Fatalf("lookup count mismatch: %s", st)
	}
}

func TestCachedLabelerReset(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)
	q := cq.MustParse("Q(n) :- likes(u, p, n, i)")
	if _, err := cached.Label(q); err != nil {
		t.Fatal(err)
	}
	cached.Reset()
	st := cached.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("reset left state behind: %s", st)
	}
	if _, err := cached.Label(q); err != nil {
		t.Fatal(err)
	}
	if st = cached.Stats(); st.Misses != 1 {
		t.Fatalf("want a fresh miss after reset, got %s", st)
	}
}

// TestLabelBatchCanonical: the batch path must produce the labels of the
// one-at-a-time path, share outcomes between isomorphic queries, and charge
// the cache one lookup per distinct canonical form — not per query.
func TestLabelBatchCanonical(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)
	reference := label.NewCachedLabeler(label.NewLabeler(cat), 0)

	qs := workloadQueries(t, 99, 9, 200)
	// Append isomorphic repeats so the batch has heavy within-batch reuse.
	base := len(qs)
	for i := 0; i < base; i += 3 {
		qs = append(qs, qs[i])
	}
	ps := make([]*cq.Prepared, len(qs))
	distinct := map[string]bool{}
	for i, q := range qs {
		ps[i] = cq.PrepareQuery(q)
		distinct[ps[i].Key] = true
	}

	labels, errs := cached.LabelBatchCanonical(ps)
	if len(labels) != len(qs) || len(errs) != len(qs) {
		t.Fatalf("batch returned %d labels / %d errs for %d queries", len(labels), len(errs), len(qs))
	}
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d (%s): %v", i, q, errs[i])
		}
		want, err := reference.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		if !labels[i].EquivTo(want) {
			t.Fatalf("query %d: batch label mismatch for %s:\n  batch  %s\n  single %s",
				i, q, labels[i].Render(cat), want.Render(cat))
		}
	}
	st := cached.Stats()
	if got := st.Hits + st.Misses; got != uint64(len(distinct)) {
		t.Fatalf("batch charged %d lookups for %d distinct forms (%s)", got, len(distinct), st)
	}
	if st.Hits != 0 {
		t.Fatalf("cold batch should miss every distinct form once, got %s", st)
	}

	// A second identical batch is all hits — still one per distinct form.
	if _, errs := cached.LabelBatchCanonical(ps); errs[0] != nil {
		t.Fatal(errs[0])
	}
	st = cached.Stats()
	if st.Misses != uint64(len(distinct)) || st.Hits != uint64(len(distinct)) {
		t.Fatalf("warm batch: want %d hits + %d misses, got %s", len(distinct), len(distinct), st)
	}
}

// TestLabelBatchCanonicalEmpty: an empty batch returns empty (non-nil
// caller-indexable) slices and touches the cache not at all.
func TestLabelBatchCanonicalEmpty(t *testing.T) {
	cached := label.NewCachedLabeler(label.NewLabeler(testCatalog(t)), 0)
	labels, errs := cached.LabelBatchCanonical(nil)
	if len(labels) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d labels / %d errs", len(labels), len(errs))
	}
	if st := cached.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("empty batch charged the cache: %s", st)
	}
}

// TestLabelBatchCanonicalSingle: a one-element batch behaves exactly like
// Label — same label, one cold miss, one warm hit.
func TestLabelBatchCanonicalSingle(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)

	q := cq.MustParse("Q(n) :- friend('me', f, s), likes(f, p, n, '1')")
	ps := []*cq.Prepared{cq.PrepareQuery(q)}
	for pass, wantHits := range []uint64{0, 1} {
		labels, errs := cached.LabelBatchCanonical(ps)
		if len(labels) != 1 || len(errs) != 1 || errs[0] != nil {
			t.Fatalf("pass %d: labels=%d errs=%v", pass, len(labels), errs)
		}
		want, err := label.NewLabeler(cat).Label(q)
		if err != nil {
			t.Fatal(err)
		}
		if !labels[0].EquivTo(want) {
			t.Fatalf("pass %d: batch label %s, want %s", pass, labels[0].Render(cat), want.Render(cat))
		}
		if st := cached.Stats(); st.Misses != 1 || st.Hits != wantHits {
			t.Fatalf("pass %d: want 1 miss + %d hits, got %s", pass, wantHits, st)
		}
	}
}

// TestLabelBatchCanonicalAllIsomorphs: a batch made entirely of renamings
// of one query costs one lookup and one labeling, and every position gets
// the shared result.
func TestLabelBatchCanonicalAllIsomorphs(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)

	qs := []*cq.Query{
		cq.MustParse("Q(n) :- friend('me', f, s), likes(f, p, n, '1')"),
		cq.MustParse("P(m) :- likes(g, r, m, '1'), friend('me', g, w)"),
		cq.MustParse("R(a) :- friend('me', b, c), likes(b, d, a, '1')"),
		cq.MustParse("S(z) :- likes(y, x, z, '1'), friend('me', y, v)"),
	}
	ps := make([]*cq.Prepared, len(qs))
	for i, q := range qs {
		ps[i] = cq.PrepareQuery(q)
	}
	labels, errs := cached.LabelBatchCanonical(ps)
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !labels[i].EquivTo(labels[0]) {
			t.Fatalf("query %d: isomorph got a different label:\n  %s\n  %s",
				i, labels[i].Render(cat), labels[0].Render(cat))
		}
	}
	if st := cached.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("all-isomorph batch should cost exactly one cold lookup, got %s", st)
	}
}
