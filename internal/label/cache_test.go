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
	for _, q := range qs {
		cached.Sight(q)
	}
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
	cached.Sight(q1)
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
		cached.Sight(q)
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

// TestLabelPrepared: a prepared query is labeled like Label — one cold
// miss, then hits — and a hit reads only the key and fingerprint it was
// prepared with: a text that does not parse is never asked for its query
// (which would panic) once its form is cached.
func TestLabelPrepared(t *testing.T) {
	cat := testCatalog(t)
	cached := label.NewCachedLabeler(label.NewLabeler(cat), 0)

	q := cq.MustParse("Q(n) :- friend('me', f, s), likes(f, p, n, '1')")
	want, err := label.NewLabeler(cat).Label(q)
	if err != nil {
		t.Fatal(err)
	}
	p := cq.PrepareQuery(q)
	cached.Sight(q)
	for pass, wantHits := range []uint64{0, 1} {
		lbl, err := cached.LabelPrepared(p)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !lbl.EquivTo(want) {
			t.Fatalf("pass %d: label %s, want %s", pass, lbl.Render(cat), want.Render(cat))
		}
		if st := cached.Stats(); st.Misses != 1 || st.Hits != wantHits {
			t.Fatalf("pass %d: want 1 miss + %d hits, got %s", pass, wantHits, st)
		}
	}

	unparsed := &cq.Prepared{Src: "not datalog", Key: p.Key, Fingerprint: p.Fingerprint}
	lbl, err := cached.LabelPrepared(unparsed)
	if err != nil || !lbl.EquivTo(want) {
		t.Fatalf("hit on a prepared key: (%s, %v), want %s", lbl.Render(cat), err, want.Render(cat))
	}
	if st := cached.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("want 1 miss + 2 hits, got %s", st)
	}
}
