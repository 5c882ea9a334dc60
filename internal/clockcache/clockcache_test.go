package clockcache

import (
	"fmt"
	"sync"
	"testing"
)

func fp(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func TestGetAddRoundTrip(t *testing.T) {
	c := New[int](64)
	if _, ok := c.Get(fp("a"), "a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Add(fp("a"), "a", 1) // the first sighting is declined
	c.Add(fp("a"), "a", 1)
	v, ok := c.Get(fp("a"), "a")
	if !ok || v != 1 {
		t.Fatalf("got (%d, %v), want (1, true)", v, ok)
	}
	// Re-adding the same key keeps the first value.
	c.Add(fp("a"), "a", 2)
	if v, _ := c.Get(fp("a"), "a"); v != 1 {
		t.Fatalf("duplicate Add overwrote: %d", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %s", st)
	}
}

func TestFingerprintCollisionSafety(t *testing.T) {
	c := New[string](64)
	// Same fingerprint, different keys: both must be retrievable.
	for i := 0; i < 2; i++ { // a first sighting, then admission
		c.Add(7, "k1", "v1")
		c.Add(7, "k2", "v2")
	}
	if v, ok := c.Get(7, "k1"); !ok || v != "v1" {
		t.Fatalf("k1 = (%q, %v)", v, ok)
	}
	if v, ok := c.Get(7, "k2"); !ok || v != "v2" {
		t.Fatalf("k2 = (%q, %v)", v, ok)
	}
}

func TestEvictionBounds(t *testing.T) {
	c := New[int](16) // one slot per shard
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%d", i)
		c.Add(fp(k), k, i) // the first sighting is declined
		c.Add(fp(k), k, i)
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("overflow: %s", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after 200 adds into 16 slots: %s", st)
	}
}

func TestResetAndHitRate(t *testing.T) {
	c := New[int](32)
	c.Add(fp("x"), "x", 9) // the first sighting is declined
	c.Add(fp("x"), "x", 9)
	c.Get(fp("x"), "x")
	c.Get(fp("y"), "y")
	if r := c.Stats().HitRate(); r != 0.5 {
		t.Fatalf("hit rate %f, want 0.5", r)
	}
	c.Reset()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Capacity == 0 {
		t.Fatalf("reset left state: %s", st)
	}
}

func TestConcurrent(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key%d", (g*31+i)%200)
				if v, ok := c.Get(fp(k), k); ok {
					if fmt.Sprintf("key%d", v) != k {
						panic("wrong value for key")
					}
					continue
				}
				var n int
				fmt.Sscanf(k, "key%d", &n)
				c.Add(fp(k), k, n)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lookup count mismatch: %s", st)
	}
}

// TestGetBytes: a lookup by the key's bytes finds what a lookup by the key
// finds, counts the same way, and converts nothing.
func TestGetBytes(t *testing.T) {
	c := New[int](64)
	key := "a key too long for the small buffer a string conversion may borrow from the stack"
	c.Add(fp(key), key, 1) // the first sighting is declined
	c.Add(fp(key), key, 1)
	b := []byte(key)
	if allocs := testing.AllocsPerRun(100, func() {
		if v, ok := c.GetBytes(fp(key), b); !ok || v != 1 {
			t.Fatalf("GetBytes = (%d, %v), want (1, true)", v, ok)
		}
	}); allocs != 0 {
		t.Errorf("GetBytes allocates %.0f times per lookup, want 0", allocs)
	}
	if _, ok := c.GetBytes(fp(key), b[1:]); ok {
		t.Error("GetBytes hit on other bytes under the same fingerprint")
	}
	if st := c.Stats(); st.Hits != 101 || st.Misses != 1 {
		t.Errorf("stats %s, want 101 hits and 1 miss", st)
	}
}

// TestCacheScanResistance: keys that never recur leave the cache almost
// empty, and a resident working set keeps hitting while they stream past.
func TestCacheScanResistance(t *testing.T) {
	const capacity = 4096
	c := New[int](capacity)
	lookup := func(k string) bool {
		if _, ok := c.Get(fp(k), k); ok {
			return true
		}
		c.Add(fp(k), k, len(k))
		return false
	}
	for i := 0; i < 3*capacity; i++ {
		lookup(fmt.Sprintf("scan%d", i))
	}
	if st := c.Stats(); st.Entries >= capacity/20 || st.Declined != st.Misses {
		t.Fatalf("%d keys seen once: %s, want under %d entries and every miss declined", 3*capacity, st, capacity/20)
	}

	c.Reset()
	for round := 0; round < 2; round++ { // a first sighting, then admission
		for i := 0; i < capacity/2; i++ {
			lookup(fmt.Sprintf("pool%d", i))
		}
	}
	hits := 0
	for i := 0; i < 3*capacity; i++ {
		if lookup(fmt.Sprintf("pool%d", i%(capacity/2))) {
			hits++
		}
		lookup(fmt.Sprintf("stream%d", i))
	}
	if hits < 3*capacity*99/100 {
		t.Fatalf("a pool of %d interleaved 1:1 with %d keys seen once hit %d of %d times, want ≥ 99%% (%s)", capacity/2, 3*capacity, hits, 3*capacity, c.Stats())
	}
}

// TestCacheCollidingKeys: keys of a cycling pool that share one shard and
// one home slot of its window's index are all admitted on their second
// sighting, as keys that do not collide are: the window is exact, so a
// key is forgotten only after a shard's capacity of later declined misses,
// wherever in the index it sits.
func TestCacheCollidingKeys(t *testing.T) {
	c := New[int](4096)
	w := &c.shards[0].seen
	home := func(k string) uint32 { return w.home(fp(k)) }
	var keys []string
	for i := 0; len(keys) < 10; i++ {
		k := fmt.Sprintf("Q(x) :- R(x, 'c%d')", i)
		if fp(k)%shardCount == 0 && (len(keys) == 0 || home(k) == home(keys[0])) {
			keys = append(keys, k)
		}
	}
	for round := 1; round <= 2; round++ {
		for _, k := range keys {
			if _, ok := c.Get(fp(k), k); !ok {
				c.Add(fp(k), k, round)
			}
		}
	}
	for _, k := range keys {
		if c.shards[0].find(fp(k), k) == nil {
			t.Fatalf("after two rounds %q, one of %d keys sharing a home slot, is not resident: %s", k, len(keys), c.Stats())
		}
	}
}

// TestWindowForgetsOldest: the window remembers exactly its shard's last
// capacity/16 declined fingerprints, whatever the probe runs their index
// slots form, and a declined miss allocates nothing.
func TestWindowForgetsOldest(t *testing.T) {
	c := New[int](16 * 64)
	s := &c.shards[0]
	var recent []uint64
	f := uint64(0)
	for i := 1; i <= 5000; i++ {
		// Fingerprints of shard 0 whose home is one of the index's last two
		// or first two slots: one long probe run that wraps around, which
		// every forget shifts back.
		for f += shardCount; (s.seen.home(f)+2)%uint32(len(s.seen.slots)) >= 4; f += shardCount {
		}
		c.Add(f, "", 0)
		recent = append(recent, f)
		if c.Stats().Entries != 0 {
			t.Fatalf("%d distinct fingerprints admitted one", i)
		}
		for j, old := range recent {
			if want := j >= len(recent)-s.cap; s.seen.has(old) != want {
				t.Fatalf("after %d fingerprints, the %d-th latest remembered = %v, want %v", i, len(recent)-j, !want, want)
			}
		}
		if len(recent) > 2*s.cap {
			recent = recent[1:]
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { f += shardCount; c.Add(f, "", 0) }); allocs != 0 {
		t.Fatalf("a declined miss allocates %.1f times", allocs)
	}
}
