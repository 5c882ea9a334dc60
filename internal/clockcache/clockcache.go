// Package clockcache implements the sharded, bounded memo shared by the
// caches of this repository: the labeling cache (internal/label) and the
// compiled-plan cache (internal/engine), keyed by canonical form, and the
// prepared-query memo in front of them (internal/cq), keyed by source text.
// All exploit the same traffic shape — app-ecosystem workloads replay a
// small template space, so isomorphic queries recur under one canonical key
// and byte-identical texts under one fingerprint — and all need the same
// discipline: lock-striped shards selected by a 64-bit fingerprint, full-key
// comparison for fingerprint-collision safety, clock (second-chance)
// eviction so adversarial or unbounded template spaces cannot exhaust
// memory, and one admission rule so that a stream of never-repeated keys
// passes through without filling them: a key is kept on its second miss
// within a window of recent misses, never on its first (the A1out ghost
// queue of 2Q, Johnson & Shasha, VLDB 1994).
package clockcache

import (
	"math/bits"
	"strconv"
	"sync"
)

// shardCount is the number of independently locked shards. Sixteen shards
// keep contention negligible for the goroutine counts the benchmarks
// exercise (1–16) while wasting little capacity on small caches.
const shardCount = 16

// Cache is a sharded, bounded map from (fingerprint, key) to V with clock
// eviction and second-sighting admission (Add). It is safe for concurrent
// use. Lookups are expected to pass key material where the fingerprint is
// a hash of the key, so equal keys always land in one shard.
type Cache[V any] struct {
	shards [shardCount]shard[V]
}

type entry[V any] struct {
	key string // full key, for fingerprint-collision safety
	val V
	ref bool // clock reference bit
}

type shard[V any] struct {
	mu       sync.Mutex
	entries  map[uint64][]*entry[V] // fingerprint → collision chain
	ring     []*entry[V]            // clock ring over resident entries
	fps      []uint64               // fingerprint per ring slot
	hand     int
	cap      int
	seen     window // the admission rule's recent declined misses
	hits     uint64
	misses   uint64
	evicted  uint64
	declined uint64
}

// New returns a cache bounded to roughly `capacity` entries in total,
// split evenly across shards. Capacity must be positive (callers resolve
// their own defaults).
func New[V any](capacity int) *Cache[V] {
	perShard := (capacity + shardCount - 1) / shardCount
	if perShard < 1 {
		perShard = 1
	}
	// Every shard's window is allocated here, in two arrays, so a declined
	// miss allocates nothing: 16 bytes per entry of capacity.
	idx := 2 << bits.Len(uint(perShard-1)) // a power of two ≥ 2 × perShard
	fps, slots := make([]uint64, shardCount*perShard), make([]uint32, shardCount*idx)
	c := &Cache[V]{}
	for i := range c.shards {
		// The map grows with residency: sized for full shards up front, an
		// empty 4096-entry cache held ≈ 290 KB it might never use.
		c.shards[i] = shard[V]{
			entries: make(map[uint64][]*entry[V]),
			cap:     perShard,
			seen: window{
				fps:   fps[i*perShard : (i+1)*perShard : (i+1)*perShard],
				slots: slots[i*idx : (i+1)*idx : (i+1)*idx],
				shift: uint(65 - bits.Len(uint(idx))),
			},
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

// Add offers a value computed after a missed Get. The cache keeps it only
// if the key's fingerprint is among the last capacity/16 that its shard
// declined — about the cache's last capacity misses — and otherwise
// remembers the fingerprint and drops the value (Stats.Declined): a key
// seen once is never kept, so a stream of keys that never recur neither
// fills the cache nor evicts what does recur, and a key that recurs while
// it is remembered is kept on its second miss. A kept value evicts by clock
// when the shard is full. A concurrent miss may already have inserted the
// key; the first insertion wins and later ones are dropped, so callers may
// compute outside any lock.
func (c *Cache[V]) Add(fp uint64, key string, v V) {
	c.AddFunc(fp, key, func() V { return v })
}

// AddFunc is Add for a caller whose value costs an allocation of its own:
// build runs, under the shard's lock, only when the value is kept.
func (c *Cache[V]) AddFunc(fp uint64, key string, build func() V) {
	s := &c.shards[fp%shardCount]
	s.mu.Lock()
	if s.find(fp, key) == nil {
		if s.seen.has(fp) {
			s.insert(fp, &entry[V]{key: key, val: build()})
		} else {
			s.seen.add(fp)
			s.declined++
		}
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

// window is a shard's memory of its last len(fps) declined fingerprints:
// a ring, whose oldest slot next overwrites once it is full, and an
// open-addressed index of ring slots (linear probing, at most half full).
// Each remembered fingerprint is in the ring once — a fingerprint found
// here is admitted, not added — so a slot overwritten is removed from the
// index by its position. Callers hold the shard's lock.
type window struct {
	fps   []uint64 // the ring
	slots []uint32 // the index: a ring position + 1, 0 when empty
	shift uint     // 64 − log2(len(slots))
	next  int      // the ring position written next
	n     int      // remembered fingerprints
}

// home is fp's first index slot: Fibonacci hashing of all 64 bits, since
// the low ones chose the shard.
func (w *window) home(fp uint64) uint32 { return uint32((fp * 0x9E3779B97F4A7C15) >> w.shift) }

// has reports whether fp is remembered.
func (w *window) has(fp uint64) bool {
	mask := uint32(len(w.slots) - 1)
	for i := w.home(fp); w.slots[i] != 0; i = (i + 1) & mask {
		if w.fps[w.slots[i]-1] == fp {
			return true
		}
	}
	return false
}

// add remembers fp in place of the oldest fingerprint once the ring is
// full.
func (w *window) add(fp uint64) {
	mask := uint32(len(w.slots) - 1)
	if w.n == len(w.fps) {
		w.forget(mask)
	} else {
		w.n++
	}
	w.fps[w.next] = fp
	i := w.home(fp)
	for w.slots[i] != 0 {
		i = (i + 1) & mask
	}
	w.slots[i] = uint32(w.next + 1)
	w.next = (w.next + 1) % len(w.fps)
}

// forget removes ring position next from the index, shifting back the
// probe run behind it so that no lookup stops short of its fingerprint.
func (w *window) forget(mask uint32) {
	i := w.home(w.fps[w.next])
	for w.slots[i] != uint32(w.next+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; w.slots[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if k := w.home(w.fps[w.slots[j]-1]); (j-k)&mask >= (j-i)&mask {
			w.slots[i], i = w.slots[j], j
		}
	}
	w.slots[i] = 0
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Declined counts the values Add dropped: misses of a key whose
	// fingerprint the admission rule did not remember. On traffic that
	// does not recur it approaches Misses while Entries stays far below
	// Capacity.
	Declined uint64 `json:"declined"`
	Entries  int    `json:"entries"`  // resident entries
	Capacity int    `json:"capacity"` // total entry bound
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
		" declined=" + strconv.FormatUint(s.Declined, 10) +
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
		out.Declined += s.declined
		out.Entries += len(s.ring)
		out.Capacity += s.cap
		s.mu.Unlock()
	}
	return out
}

// Reset empties the cache and its admission window and zeroes the counters
// (capacity is kept).
func (c *Cache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[uint64][]*entry[V])
		s.ring = s.ring[:0]
		s.fps = s.fps[:0]
		s.hand = 0
		clear(s.seen.slots)
		s.seen.next, s.seen.n = 0, 0
		s.hits, s.misses, s.evicted, s.declined = 0, 0, 0, 0
		s.mu.Unlock()
	}
}
