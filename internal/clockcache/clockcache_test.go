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
	c.Add(7, "k1", "v1")
	c.Add(7, "k2", "v2")
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
