package engine

import (
	"cmp"
	"encoding/binary"
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
// one, two and five variables, a repeated head variable, constant head
// positions, a head of constants only, and joins whose leading head
// columns tie often.
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

// hostileStrings returns values built to break an ordering of interned
// strings: the empty string, NUL alone, leading, inside and trailing (the
// byte that sorts first), long shared prefixes, one string a prefix of the
// next, multi-byte and invalid UTF-8, bytes on both sides of the ASCII
// range, strings that tie on the eight-byte prefix key the sort compares
// first (sortCollected) — a 7-byte string and its twin padded with NUL
// to eight, twins on both sides of the slot boundary, and a family of
// values so frequent that a leading column is full of ties — and, for
// every generation, strings that sort before everything an earlier
// generation interned except the values that lead with NUL (a longer run
// of \x01 bytes sorts behind a shorter one, so later generations use
// shorter runs).
func hostileStrings(rng *rand.Rand, gen, n int) []string {
	const maxGen = 40
	first := strings.Repeat("\x01", maxGen-gen)
	fixed := []string{
		"", "a", "aa", "aaa", "aab", "ab", "b", "a\x01", "a\x01a", "A", "~", "\x7f", " ",
		"\x00", "\x00\x00", "\x00a", "a\x00b", "a\x00", "a\x00\x01",
		"\u00e9", "\u00e9a", "e\u0301", "\u65e5\u672c", "\u65e5\u672c\u8a9e", "\u65e5", "\u2028", "\U0001F600", "\xff", "\xfe\xff", "\xc3",
		"common/prefix/shared/by/many/values/", "common/prefix/shared/by/many/values/0",
		"abcdefg", "abcdefg\x00", "abcdefg\x00\x00", "abcdefg\x01", "abcdefgh", "abcdefgh\x00", "abcdefgha",
		"abcdefghijkl", "abcdefghijkl\x00", "abcdefghijklm", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	}
	// Ties on the prefix key "abcdefg" and its NUL-padded twin, or on
	// "abcdefgh", inline and in the arena.
	tails := []string{"", "\x00", "h", "h\x00", "h/past/the/slot/"}
	out := []string{first, first + "a", first[:len(first)/2] + "\x02"}
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			out = append(out, fixed[rng.Intn(len(fixed))])
		case 1:
			out = append(out, fmt.Sprintf("common/prefix/shared/by/many/values/%d", rng.Intn(50*(gen+1))))
		case 2:
			out = append(out, fixed[rng.Intn(len(fixed))]+fixed[rng.Intn(len(fixed))])
		case 3:
			out = append(out, fmt.Sprintf("g%d-%d", gen, rng.Intn(30)))
		default:
			out = append(out, "abcdefg"+tails[rng.Intn(len(tails))]+fmt.Sprint(rng.Intn(3*(gen+1))))
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

// TestOrderDifferential: whatever strings are interned, in whatever order
// and by whichever write path, and however many publications pass between
// two sorts, answers come back in exactly the order the string-comparing
// reference sort gives.
func TestOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := orderTestDB()
		for gen := 0; gen < 12; gen++ {
			mustPublishHostile(t, db, rng, gen)
			// Not every publication is followed by a sort, so a sort may
			// be the first to read the strings of several.
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
// evaluates in order after a newer snapshot has sorted answers over more
// strings, and one pinned before any evaluation sorted does too.
func TestOrderPinnedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := orderTestDB()
	mustPublishHostile(t, db, rng, 0)
	unsorted := db.Snapshot() // no evaluation has sorted yet
	mustPublishHostile(t, db, rng, 1)
	for _, q := range orderQueries {
		checkOrder(t, db, db.Snapshot(), q, "before pinning")
	}
	pinned := db.Snapshot()
	for gen := 2; gen < 5; gen++ {
		mustPublishHostile(t, db, rng, gen)
	}
	for _, q := range orderQueries {
		checkOrder(t, db, db.Snapshot(), q, "newest snapshot")
	}
	for _, q := range orderQueries {
		checkOrder(t, db, pinned, q, "pinned snapshot, after newer strings were sorted")
		checkOrder(t, db, unsorted, q, "snapshot older than any sort")
	}
}

// TestOrderConcurrentWriter: eight readers sort while a writer interns new
// strings; run with -race. Every answer must be in order at the snapshot it
// was evaluated on.
func TestOrderConcurrentWriter(t *testing.T) {
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

// TestOrderPrefixKeys: every interned string's prefix key is its first
// eight bytes, big-endian, padded with zero bytes — inline, at the slot
// boundary and in the arena — and two keys that differ order their strings
// as bytes.Compare does.
func TestOrderPrefixKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var vals []string
	for gen := 0; gen < 6; gen++ {
		vals = append(vals, hostileStrings(rng, gen, 60)...)
	}
	db := orderTestDB()
	err := db.Load(func(ld *Loader) error {
		for _, v := range vals {
			if err := ld.Insert("T", v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := db.Snapshot().dict
	keys := make([]uint64, len(vals))
	for i, v := range vals {
		id, ok := db.in.lookup(v)
		if !ok {
			t.Fatalf("%q was not interned", v)
		}
		var want [8]byte
		copy(want[:], v)
		if keys[i] = d.prefixKey(id); keys[i] != binary.BigEndian.Uint64(want[:]) {
			t.Fatalf("prefixKey(%q) = %#016x, want %#016x", v, keys[i], binary.BigEndian.Uint64(want[:]))
		}
	}
	for i, x := range vals {
		for j, y := range vals {
			if c := cmp.Compare(keys[i], keys[j]); c != 0 && c != strings.Compare(x, y) {
				t.Fatalf("keys of %q and %q compare %d, the strings %d", x, y, c, strings.Compare(x, y))
			}
		}
	}
}

// BenchmarkOrderSort times sortCollected alone — prefix keys and the sort
// of the answer indexes — over the collected answers of each orderQueries
// shape, on thirty generations of hostile strings, whose leading columns
// tie often (information, not a gate).
func BenchmarkOrderSort(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := orderTestDB()
	for gen := 0; gen < 30; gen++ {
		if err := publishHostile(db, rng, gen); err != nil {
			b.Fatal(err)
		}
	}
	snap := db.Snapshot()
	for i, q := range orderQueries {
		p, err := compilePlan(db, cq.PrepareQuery(q))
		if err != nil {
			b.Fatal(err)
		}
		a := db.getArena()
		if !p.resolveConsts(db, a) || !p.run(snap, a, 0) {
			continue
		}
		a.resetAnswers(a.cur.n)
		n := p.collect(a, 0)
		b.Run(fmt.Sprintf("q%d", i), func(b *testing.B) {
			for range b.N {
				p.sortCollected(snap, a, n)
			}
			b.ReportMetric(float64(n), "answers")
		})
	}
}
