package label

import (
	"repro/internal/clockcache"
	"repro/internal/cq"
)

// The labeling hot path of a deployed reference monitor sees highly
// repetitive traffic: millions of users running the same handful of app
// query templates under different variable names (the regime of the paper's
// Section 7.2 workload generator). CachedLabeler exploits this by memoizing
// labels under the canonical fingerprint of the query (cq.Fingerprint):
// isomorphic queries — equal up to variable renaming and atom reordering —
// share one cache entry, so a recurring template is labeled on its first two
// sightings and every later repeat is a lookup.
//
// The memo itself — lock-striped shards, full-key collision safety, clock
// eviction, second-sighting admission, so templates that never recur pass
// through without filling it — is internal/clockcache, shared with the
// engine's compiled-plan cache, which exploits the same traffic shape.

// DefaultCacheCapacity is the entry bound used when NewCachedLabeler is
// given a non-positive capacity.
const DefaultCacheCapacity = 4096

// CachedLabeler wraps any Labeler with a sharded, bounded canonical-form
// memo. It is safe for concurrent use provided the wrapped labeler is (all
// labelers constructed by this package are: they are read-only after
// construction).
type CachedLabeler struct {
	inner Labeler
	cache *clockcache.Cache[Label]
}

// NewCachedLabeler wraps inner with a memo bounded to roughly `capacity`
// entries in total (split evenly across shards; non-positive means
// DefaultCacheCapacity).
func NewCachedLabeler(inner Labeler, capacity int) *CachedLabeler {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &CachedLabeler{inner: inner, cache: clockcache.New[Label](capacity)}
}

// Name identifies the labeler in benchmark output.
func (l *CachedLabeler) Name() string { return "cached(" + l.inner.Name() + ")" }

// Catalog returns the wrapped labeler's catalog.
func (l *CachedLabeler) Catalog() *Catalog { return l.inner.Catalog() }

// Label computes (or recalls) the disclosure label of q. Labels are shared
// between isomorphic queries; callers must treat the returned Label as
// immutable, which every consumer in this module already does. Labeling
// errors are returned and never cached.
func (l *CachedLabeler) Label(q *cq.Query) (Label, error) {
	return l.LabelCanonical(cq.CanonicalKey(q), q)
}

// LabelCanonical is Label for callers that already hold q's canonical key
// (cq.CanonicalKey): canonicalization dominates the warm-cache hot path, so
// a submission carries the key it was prepared with and shares it between
// this cache and the engine's plan cache.
func (l *CachedLabeler) LabelCanonical(key string, q *cq.Query) (Label, error) {
	fp := cq.FingerprintKey(key)
	if lbl, ok := l.cache.Get(fp, key); ok {
		return lbl, nil
	}
	return l.labelMiss(fp, key, q)
}

// labelMiss labels q after a counted miss and caches the outcome.
func (l *CachedLabeler) labelMiss(fp uint64, key string, q *cq.Query) (Label, error) {
	lbl, err := l.inner.Label(q)
	return l.keep(fp, key, lbl, err)
}

// keep offers a miss's outcome to the cache unless it is an error (the
// cache keeps it on the key's second miss). Misses label outside
// any lock, so concurrent ones label in parallel; a racing miss may insert
// first, in which case its entry wins.
func (l *CachedLabeler) keep(fp uint64, key string, lbl Label, err error) (Label, error) {
	if err != nil {
		return lbl, err
	}
	l.cache.Add(fp, key, lbl)
	return lbl, nil
}

// LabelPrepared is LabelCanonical for a prepared query (cq.Prepared), the
// submit pipeline's one labeling call: a hit reads the key and the
// fingerprint the query was prepared with, nothing else. On a miss the
// bit-vector labeler folds the form the query was prepared with; any other
// labeler is handed the parsed query.
func (l *CachedLabeler) LabelPrepared(p *cq.Prepared) (Label, error) {
	if lbl, ok := l.cache.Get(p.Fingerprint, p.Key); ok {
		return lbl, nil
	}
	if bl, ok := l.inner.(*bitVectorLabeler); ok {
		lbl, err := bl.labelPrepared(p)
		return l.keep(p.Fingerprint, p.Key, lbl, err)
	}
	return l.labelMiss(p.Fingerprint, p.Key, p.Query())
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats = clockcache.Stats

// Stats aggregates the per-shard counters.
func (l *CachedLabeler) Stats() CacheStats { return l.cache.Stats() }

// FoldExhausted forwards the wrapped labeler's count of labelings whose
// fold ran out of its step budget (0 for labelers that do not count).
func (l *CachedLabeler) FoldExhausted() uint64 {
	if c, ok := l.inner.(interface{ FoldExhausted() uint64 }); ok {
		return c.FoldExhausted()
	}
	return 0
}

// Reset empties the cache and zeroes the counters (capacity is kept).
func (l *CachedLabeler) Reset() { l.cache.Reset() }
