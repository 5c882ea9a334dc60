package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// TestDictionaryEdgeCases: values at the inline/arena boundary, bytes an
// encoder must escape and a 1 MiB string each re-intern to their id, read
// back byte for byte with the right plain bit, are found by lookup, and
// read the same through a view captured before hundreds of later interns
// grew the slots, the arena and the id table.
func TestDictionaryEdgeCases(t *testing.T) {
	cases := []struct {
		name, s string
		plain   bool
	}{
		{"empty", "", true},
		{"12 bytes, inline", "abcdefghijkl", true},
		{"13 bytes, arena", "abcdefghijklm", true},
		{"12 bytes, a quote", `abcdefghijk"`, false},
		{"13 bytes, an ampersand", "abcdefghijkl&", false},
		{"NUL", "\x00", false},
		{"invalid UTF-8", "\xff\xfe\xc3", false},
		{"U+2028", "\u2028", false},
		{"1 MiB", strings.Repeat("x", 1<<20), true},
	}
	in := newInterner()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			id := in.intern(c.s)
			before := in.snapshot()
			for i := 0; i < 300; i++ {
				in.intern(fmt.Sprintf("%s/later/%d", c.name, i))
			}
			if again := in.intern(c.s); again != id {
				t.Errorf("re-interning returned id %d, first intern %d", again, id)
			}
			if got, ok := in.lookup(c.s); !ok || got != id {
				t.Errorf("lookup = %d, %v; want %d, true", got, ok, id)
			}
			d := in.snapshot()
			b, plain := d.slotBytes(&d.slots[id])
			if string(b) != c.s {
				t.Errorf("bytes do not round-trip: %d bytes back for %d", len(b), len(c.s))
			}
			if plain != c.plain {
				t.Errorf("plain bit %v, want %v", plain, c.plain)
			}
			if string(before.bytes(id)) != c.s {
				t.Error("a view captured before later interns reads different bytes")
			}
		})
	}
	if _, ok := in.lookup("never interned"); ok {
		t.Error("lookup found a string nobody interned")
	}
}

// TestInternConcurrentReaders: readers resolve constants no plan has seen
// through lookup and render their answers, while the writer interns enough
// strings to double the id table and the slot array several times; run
// with -race. Every answer is the row the writer inserted for the constant,
// or none when the reader's snapshot predates it.
func TestInternConcurrentReaders(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.MustRelation("K", "key", "val")))
	const total = 4000 // 8,000 strings: the 64-entry id table doubles eight times
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	val := func(i int) string { return fmt.Sprintf("v%d%s", i, strings.Repeat("-", i%24)) } // inline and arena
	var inserted atomic.Int64
	var queries atomic.Int64 // distinct head constants: every query is a new plan
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			err := db.Load(func(ld *Loader) error {
				for end := i + 50; i < end; i++ {
					if err := ld.Insert("K", key(i), val(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			inserted.Store(int64(i))
		}
	}()
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 100 || inserted.Load() < total; n++ {
				i := rng.Intn(total + total/10)
				marker := fmt.Sprintf("m%d", queries.Add(1))
				lo := int(inserted.Load())
				snap := db.Snapshot()
				ans, err := db.EvalCanonicalAt(snap, cq.PrepareQuery(cq.MustParse(fmt.Sprintf("Q(v, '%s') :- K('%s', v)", marker, key(i)))))
				if err != nil {
					errc <- err
					return
				}
				switch {
				case ans.Len() == 0 && i >= lo:
				case ans.Len() == 1 && i < total:
					b := ans.AppendRow(nil, 0, func(dst, b []byte) []byte { return append(dst, "not plain"...) })
					rows := ans.Rows()
					if want := fmt.Sprintf("[%q,%q]", val(i), marker); string(b) != want || !slices.Equal(rows[0], Tuple{val(i), marker}) {
						errc <- fmt.Errorf("%s: answer %q (bytes %s), want %s", key(i), rows, b, want)
						return
					}
				default:
					errc <- fmt.Errorf("%s: %d rows, %d keys inserted before the snapshot", key(i), ans.Len(), lo)
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
}

// TestColIndexBuckets: every value's bucket is exactly its rows in
// ascending order — numbered from the range's first row, as a tail index's
// are — absent values have none, and the directory follows the number of
// distinct values, not the number of rows or the id range.
func TestColIndexBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, distinct := range []int{1, 2, 7, 100, 2500} {
		for _, stride := range []uint32{1, 1024} {
			for _, first := range []int{0, 1, 4711} {
				src := make([]uint32, 3000)
				want := map[uint32][]int32{}
				for r := range src {
					v := uint32(rng.Intn(distinct)) * stride
					src[r] = v
					want[v] = append(want[v], int32(first+r))
				}
				x := buildColIndex(src, first)
				for v, rows := range want {
					if got := x.bucket(v); !slices.Equal(got, rows) {
						t.Fatalf("%d distinct, stride %d, first row %d: bucket(%d) = %v, want %v", distinct, stride, first, v, got, rows)
					}
				}
				if got := x.bucket(uint32(distinct) * stride); len(got) != 0 {
					t.Fatalf("%d distinct, stride %d, first row %d: an absent value has bucket %v", distinct, stride, first, got)
				}
				if len(x.dir) > max(8, 4*len(want)) {
					t.Fatalf("%d distinct values in a %d-entry directory", len(want), len(x.dir))
				}
			}
		}
	}
	var none *colIndex
	if got := none.bucket(0); got != nil {
		t.Fatalf("a nil index has bucket %v", got)
	}
}
