package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// orderQueries cover the shapes the answer sort distinguishes: heads of
// one, two and more variables (wider than one packed sort key), a repeated
// head variable, constant head positions, a head of constants only, and
// joins whose leading head columns tie often.
var orderQueries = []*cq.Query{
	cq.MustParse("Q(a) :- R(a, b)"),
	cq.MustParse("Q(b, a) :- R(a, b)"),
	cq.MustParse("Q(a, b, c) :- S(a, b, c)"),
	cq.MustParse("Q(c, 'k', a, b) :- S(a, b, c)"),
	cq.MustParse("Q('k', c) :- S(a, b, c)"),
	cq.MustParse("Q(x, x, y) :- R(x, y)"),
	cq.MustParse("Q('k') :- T(a)"),
	cq.MustParse("Q(a, c) :- S(a, b, c), T(a)"),
	cq.MustParse("Q(a, b, c, d) :- R(a, b), S(b, c, d)"),
	cq.MustParse("Q(a, b, c, d, e) :- R(a, b), S(c, d, e)"),
}

// hostileStrings returns values built to break an ordering that is
// extended lazily: the empty string, long shared prefixes, one string a
// prefix of the next, multi-byte and invalid UTF-8, bytes on both sides of
// the ASCII range — and, for every generation, strings that sort before
// everything an earlier generation could have ranked (a longer run of \x01
// bytes sorts behind a shorter one, so later generations use shorter runs).
// NUL itself stays out: the reference evaluator deduplicates on tuples
// joined by NUL, so it is not ground truth for values that contain one.
func hostileStrings(rng *rand.Rand, gen, n int) []string {
	const maxGen = 40
	first := strings.Repeat("\x01", maxGen-gen)
	fixed := []string{
		"", "a", "aa", "aaa", "aab", "ab", "b", "a\x01", "a\x01a", "A", "~", "\x7f", " ",
		"\u00e9", "\u00e9a", "e\u0301", "\u65e5\u672c", "\u65e5\u672c\u8a9e", "\u65e5", "\u2028", "\U0001F600", "\xff", "\xfe\xff", "\xc3",
		"common/prefix/shared/by/many/values/", "common/prefix/shared/by/many/values/0",
	}
	out := []string{first, first + "a", first[:len(first)/2] + "\x02"}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			out = append(out, fixed[rng.Intn(len(fixed))])
		case 1:
			out = append(out, fmt.Sprintf("common/prefix/shared/by/many/values/%d", rng.Intn(50*(gen+1))))
		case 2:
			out = append(out, fixed[rng.Intn(len(fixed))]+fixed[rng.Intn(len(fixed))])
		default:
			out = append(out, fmt.Sprintf("g%d-%d", gen, rng.Intn(30)))
		}
	}
	return out
}

// publishHostile adds one generation of hostile values to db, in one of the
// ways a value can first be interned: by single Inserts or by a Load, and —
// the next generation's smallest string — in a middle column of a row,
// generations before any answer leads with it.
func publishHostile(db *Database, rng *rand.Rand, gen int) error {
	vals := hostileStrings(rng, gen, 8+rng.Intn(12))
	pick := func() string { return vals[rng.Intn(len(vals))] }
	insert := func(ins func(rel string, values ...string) error) error {
		if err := ins("S", pick(), hostileStrings(rng, gen+1, 0)[0], pick()); err != nil {
			return err
		}
		for i := 0; i < 6+rng.Intn(12); i++ {
			var err error
			switch rng.Intn(3) {
			case 0:
				err = ins("R", pick(), pick())
			case 1:
				err = ins("S", pick(), pick(), pick())
			default:
				err = ins("T", pick())
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if gen%3 == 0 {
		return insert(db.Insert)
	}
	return db.Load(func(ld *Loader) error { return insert(ld.Insert) })
}

// mustPublishHostile is publishHostile on the test's own goroutine.
func mustPublishHostile(t *testing.T, db *Database, rng *rand.Rand, gen int) {
	t.Helper()
	if err := publishHostile(db, rng, gen); err != nil {
		t.Fatal(err)
	}
}

func orderTestDB() *Database {
	return NewDatabase(schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a", "b", "c"),
		schema.MustRelation("T", "a"),
	))
}

// checkOrder requires EvalAt at snap to return exactly the reference
// evaluator's answers in the string-comparing order of sortTuples.
func checkOrder(t *testing.T, db *Database, snap *Snapshot, q *cq.Query, when string) {
	t.Helper()
	want, err := snap.EvalReference(q)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.Clone(want)
	sortTuples(want)
	got, err := db.EvalAt(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if at := firstDifference(got, want); at >= 0 {
		t.Fatalf("%s: Eval(%s) has %d rows, the reference %d; they differ at row %d: %q", when, q, len(got), len(want), at, rowsAround(got, want, at))
	}
}

// firstDifference returns the first index at which two answers differ, or
// -1 when they are the same rows in the same order.
func firstDifference(got, want []Tuple) int {
	for i := range min(len(got), len(want)) {
		if !slices.Equal(got[i], want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// rowsAround returns row at of each answer, where it has one.
func rowsAround(got, want []Tuple, at int) [][]Tuple {
	return [][]Tuple{got[min(at, len(got)):min(at+1, len(got))], want[min(at, len(want)):min(at+1, len(want))]}
}

// TestOrderDifferential is the differential suite of the rank table:
// whatever strings are interned, in whatever order and by whichever write
// path, and however the table was extended in between, answers come back in
// exactly the order the string-comparing reference sort gives.
func TestOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := orderTestDB()
		for gen := 0; gen < 12; gen++ {
			mustPublishHostile(t, db, rng, gen)
			// Not every publication is followed by a sort, so extensions
			// cover one publication or several.
			if rng.Intn(3) == 0 {
				continue
			}
			snap := db.Snapshot()
			when := fmt.Sprintf("seed %d, after publication %d", seed, gen)
			for _, q := range orderQueries {
				checkOrder(t, db, snap, q, when)
			}
			// Random shapes too, while their cross products are still small.
			for i := 0; i < 20 && gen < 4; i++ {
				checkOrder(t, db, snap, randomQuery(rng, fmt.Sprintf("Rnd%d_%d", gen, i)), when)
			}
		}
	}
}

// TestOrderPinnedSnapshot: a snapshot pinned before three further loads
// evaluates in order through the longer table a newer snapshot built, and
// one pinned before the table existed at all does too.
func TestOrderPinnedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := orderTestDB()
	mustPublishHostile(t, db, rng, 0)
	unranked := db.Snapshot() // no evaluation has sorted yet
	mustPublishHostile(t, db, rng, 1)
	for _, q := range orderQueries {
		checkOrder(t, db, db.Snapshot(), q, "before pinning")
	}
	pinned := db.Snapshot()
	covered := len(db.ranks.Load().rank)
	for gen := 2; gen < 5; gen++ {
		mustPublishHostile(t, db, rng, gen)
	}
	for _, q := range orderQueries {
		checkOrder(t, db, db.Snapshot(), q, "newest snapshot")
	}
	if now := len(db.ranks.Load().rank); now <= covered || now != len(db.Snapshot().strs) {
		t.Fatalf("rank table covers %d ids after three loads, had %d, dictionary has %d", now, covered, len(db.Snapshot().strs))
	}
	for _, q := range orderQueries {
		checkOrder(t, db, pinned, q, "pinned snapshot, after the table was extended past it")
		checkOrder(t, db, unranked, q, "snapshot older than the table")
	}
}

// TestRankExtensionRace: eight readers sort — and so extend the table —
// while a writer interns new strings; run with -race. Every answer must be
// in order at the snapshot it was evaluated on.
func TestRankExtensionRace(t *testing.T) {
	db := orderTestDB()
	rng := rand.New(rand.NewSource(11))
	mustPublishHostile(t, db, rng, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 9)
	go func() {
		defer wg.Done()
		defer close(done)
		for gen := 1; gen < 30; gen++ {
			if err := publishHostile(db, rng, gen); err != nil {
				errc <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := orderQueries[(g+i)%len(orderQueries)]
				snap := db.Snapshot()
				got, err := db.EvalAt(snap, q)
				if err == nil && !slices.IsSortedFunc(got, func(a, b Tuple) int { return slices.Compare(a, b) }) {
					err = fmt.Errorf("%s: answer out of order: %q", q, got)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, q := range orderQueries {
		checkOrder(t, db, db.Snapshot(), q, "after the race")
	}
}

// TestExtendRanks pins the table's invariant directly: after any sequence
// of extensions, sorted lists every id in string order and rank inverts it
// — and an extension, which merges into sorted in place, leaves the ranks a
// reader may still hold exactly as they were published.
func TestExtendRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var strs []string
	seen := map[string]bool{}
	var table *rankTable
	for gen := 0; gen < 20; gen++ {
		for _, s := range hostileStrings(rng, gen, 25) {
			if !seen[s] {
				seen[s] = true
				strs = append(strs, s)
			}
		}
		var held, heldCopy []uint32
		if table != nil {
			held, heldCopy = table.rank, slices.Clone(table.rank)
		}
		table = extendRanks(table, strs)
		if !slices.Equal(held, heldCopy) {
			t.Fatalf("generation %d: the extension rewrote published ranks", gen)
		}
		if len(table.sorted) != len(strs) || len(table.rank) != len(strs) {
			t.Fatalf("table covers %d/%d ids, want %d", len(table.sorted), len(table.rank), len(strs))
		}
		for pos, id := range table.sorted {
			if pos > 0 && strs[table.sorted[pos-1]] >= strs[id] {
				t.Fatalf("generation %d: sorted[%d]=%q is not before sorted[%d]=%q", gen, pos-1, strs[table.sorted[pos-1]], pos, strs[id])
			}
			if table.rank[id] != uint32(pos) {
				t.Fatalf("generation %d: rank[%d] = %d, want %d", gen, id, table.rank[id], pos)
			}
		}
	}
}

// TestSortPacked drives the answer sort at several key packings — one,
// two and four head columns per pass — over answers whose leading columns
// tie in long runs, against a plain comparison sort of the rank tuples.
func TestSortPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rbits := range []uint{32, 20, 12} {
		for _, k := range []int{1, 2, 3, 5, 8} {
			const nAns, ibits = 500, 9
			rank := rng.Perm(1 << 12)
			ranks := make([]uint32, len(rank))
			for id, r := range rank {
				ranks[id] = uint32(r)
			}
			// Distinct answers: few distinct values in the leading columns,
			// the whole dictionary in the last.
			seen := map[string]bool{}
			var ids []uint32
			for len(ids) < nAns*k {
				row := make([]uint32, k)
				for c := range row {
					row[c] = uint32(rng.Intn(2 + 3*c))
				}
				row[k-1] = uint32(rng.Intn(len(rank)))
				if key := fmt.Sprint(row); !seen[key] {
					seen[key] = true
					ids = append(ids, row...)
				}
			}
			ord := make([]uint64, nAns)
			want := make([]int, nAns)
			for i := range ord {
				ord[i], want[i] = uint64(i), i
			}
			rankOf := func(i int) []uint32 {
				out := make([]uint32, k)
				for c := range out {
					out[c] = ranks[ids[i*k+c]]
				}
				return out
			}
			slices.SortFunc(want, func(a, b int) int { return slices.Compare(rankOf(a), rankOf(b)) })
			sortPacked(ord, ids, ranks, k, 0, rbits, ibits)
			for i, o := range ord {
				if got := int(o & (1<<ibits - 1)); got != want[i] {
					t.Fatalf("rbits %d, k %d: position %d holds answer %d (ranks %v), want %d (ranks %v)",
						rbits, k, i, got, rankOf(got), want[i], rankOf(want[i]))
				}
			}
		}
	}
}
