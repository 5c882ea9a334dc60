// Package clockcache implements the sharded, bounded memo shared by the
// caches of this repository: the labeling cache (internal/label) and the
// compiled-plan cache (internal/engine), keyed by canonical form, and the
// prepared-query memo in front of them (internal/cq), keyed by source text.
// All exploit the same traffic shape — app-ecosystem workloads replay a
// small template space, so isomorphic queries recur under one canonical key
// and byte-identical texts under one fingerprint — and all need the same
// discipline: lock-striped shards selected by a 64-bit fingerprint, full-key
// comparison for fingerprint-collision safety, and clock (second-chance)
// eviction so adversarial or unbounded template spaces cannot exhaust
// memory.
package clockcache

import (
	"strconv"
	"sync"
)

// shardCount is the number of independently locked shards. Sixteen shards
// keep contention negligible for the goroutine counts the benchmarks
// exercise (1–16) while wasting little capacity on small caches.
const shardCount = 16

// Cache is a sharded, bounded map from (fingerprint, key) to V with clock
// eviction. It is safe for concurrent use. Lookups are expected to pass
// key material where the fingerprint is a hash of the key, so equal keys
// always land in one shard.
type Cache[V any] struct {
	shards [shardCount]shard[V]
}

type entry[V any] struct {
	key string // full key, for fingerprint-collision safety
	val V
	ref bool // clock reference bit
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[uint64][]*entry[V] // fingerprint → collision chain
	ring    []*entry[V]            // clock ring over resident entries
	fps     []uint64               // fingerprint per ring slot
	hand    int
	cap     int
	hits    uint64
	misses  uint64
	evicted uint64
}

// New returns a cache bounded to roughly `capacity` entries in total,
// split evenly across shards. Capacity must be positive (callers resolve
// their own defaults).
func New[V any](capacity int) *Cache[V] {
	perShard := (capacity + shardCount - 1) / shardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{}
	for i := range c.shards {
		// The map grows with residency: sized for full shards up front, an
		// empty 4096-entry cache held ≈ 290 KB it might never use.
		c.shards[i] = shard[V]{
			entries: make(map[uint64][]*entry[V]),
			cap:     perShard,
		}
	}
	return c
}

// Get returns the resident value for (fp, key), marking it recently used.
// Hit and miss counters are updated, so pair every Get with at most one
// Add for the same lookup.
func (c *Cache[V]) Get(fp uint64, key string) (V, bool) { return get(c, fp, key) }

// GetBytes is Get for a key the caller holds as bytes — a request body it is
// still reading — so a lookup costs no conversion: the comparison against
// the resident keys allocates nothing, and only a caller that goes on to Add
// makes the string.
func (c *Cache[V]) GetBytes(fp uint64, key []byte) (V, bool) { return get(c, fp, key) }

func get[V any, K string | []byte](c *Cache[V], fp uint64, key K) (V, bool) {
	s := &c.shards[fp%shardCount]
	s.mu.Lock()
	for _, e := range s.entries[fp] {
		if e.key == string(key) {
			e.ref = true
			s.hits++
			v := e.val
			s.mu.Unlock()
			return v, true
		}
	}
	s.misses++
	s.mu.Unlock()
	var zero V
	return zero, false
}

// Peek returns the resident value for (fp, key) without counting a hit or
// miss and without touching the clock reference bit. It exists for
// singleflight-style callers that re-check residency after a counted miss:
// a Peek never perturbs the effectiveness counters the caller already
// charged.
func (c *Cache[V]) Peek(fp uint64, key string) (V, bool) {
	s := &c.shards[fp%shardCount]
	s.mu.Lock()
	if e := s.find(fp, key); e != nil {
		v := e.val
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	var zero V
	return zero, false
}

// Add inserts a value computed after a missed Get, evicting by clock when
// the shard is full. A concurrent miss may already have inserted the key;
// the first insertion wins and later ones are dropped, so callers may
// compute outside any lock.
func (c *Cache[V]) Add(fp uint64, key string, v V) {
	s := &c.shards[fp%shardCount]
	s.mu.Lock()
	if s.find(fp, key) == nil {
		s.insert(fp, &entry[V]{key: key, val: v})
	}
	s.mu.Unlock()
}

// find returns the resident entry for (fp, key), or nil. Callers hold mu.
func (s *shard[V]) find(fp uint64, key string) *entry[V] {
	for _, e := range s.entries[fp] {
		if e.key == key {
			return e
		}
	}
	return nil
}

// insert adds an entry, evicting by clock when the shard is full. Callers
// hold mu.
func (s *shard[V]) insert(fp uint64, e *entry[V]) {
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, e)
		s.fps = append(s.fps, fp)
		s.entries[fp] = append(s.entries[fp], e)
		return
	}
	// Clock sweep: skip (and clear) referenced entries, evict the first
	// unreferenced one. Terminates within two revolutions.
	for {
		if victim := s.ring[s.hand]; !victim.ref {
			s.dropFromChain(s.fps[s.hand], victim)
			s.evicted++
			s.ring[s.hand] = e
			s.fps[s.hand] = fp
			s.entries[fp] = append(s.entries[fp], e)
			s.hand = (s.hand + 1) % len(s.ring)
			return
		} else {
			victim.ref = false
		}
		s.hand = (s.hand + 1) % len(s.ring)
	}
}

// dropFromChain removes an entry from its fingerprint's collision chain.
func (s *shard[V]) dropFromChain(fp uint64, e *entry[V]) {
	chain := s.entries[fp]
	for i, c := range chain {
		if c == e {
			chain[i] = chain[len(chain)-1]
			chain = chain[:len(chain)-1]
			break
		}
	}
	if len(chain) == 0 {
		delete(s.entries, fp)
	} else {
		s.entries[fp] = chain
	}
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`  // resident entries
	Capacity  int    `json:"capacity"` // total entry bound
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the snapshot for logs and benchmark output.
func (s Stats) String() string {
	return "hits=" + strconv.FormatUint(s.Hits, 10) +
		" misses=" + strconv.FormatUint(s.Misses, 10) +
		" evictions=" + strconv.FormatUint(s.Evictions, 10) +
		" entries=" + strconv.Itoa(s.Entries) + "/" + strconv.Itoa(s.Capacity) +
		" hitRate=" + strconv.FormatFloat(s.HitRate(), 'f', 3, 64)
}

// Stats aggregates the per-shard counters.
func (c *Cache[V]) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evicted
		out.Entries += len(s.ring)
		out.Capacity += s.cap
		s.mu.Unlock()
	}
	return out
}

// Reset empties the cache and zeroes the counters (capacity is kept).
func (c *Cache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[uint64][]*entry[V])
		s.ring = s.ring[:0]
		s.fps = s.fps[:0]
		s.hand = 0
		s.hits, s.misses, s.evicted = 0, 0, 0
		s.mu.Unlock()
	}
}
