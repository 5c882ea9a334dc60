package label

import (
	"sync"

	"repro/internal/clockcache"
	"repro/internal/cq"
)

// The labeling hot path of a deployed reference monitor sees highly
// repetitive traffic: millions of users running the same handful of app
// query templates under different variable names (the regime of the paper's
// Section 7.2 workload generator). CachedLabeler exploits this by memoizing
// labels under the canonical fingerprint of the query (cq.Fingerprint):
// isomorphic queries — equal up to variable renaming and atom reordering —
// share one cache entry, so each template is labeled once and every repeat
// is a lookup.
//
// The memo itself — lock-striped shards, full-key collision safety, clock
// eviction — is internal/clockcache, shared with the engine's compiled-plan
// cache, which exploits the same traffic shape.

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

// labelMiss labels q after a counted miss and caches the outcome. It runs
// outside any lock so concurrent misses label in parallel; a racing miss
// may insert first, in which case its entry wins.
func (l *CachedLabeler) labelMiss(fp uint64, key string, q *cq.Query) (Label, error) {
	lbl, err := l.inner.Label(q)
	if err != nil {
		return lbl, err
	}
	l.cache.Add(fp, key, lbl)
	return lbl, nil
}

// LabelBatchCanonical labels a whole batch of prepared queries with one
// cache-lookup round: positions are grouped by canonical key, each distinct
// form costs exactly one counted Get, and the forms that miss are labeled
// concurrently and inserted once. Repeated templates inside a batch — the
// dominant shape of app-ecosystem traffic — therefore pay one lookup and at
// most one labeling no matter how often they recur, and the effectiveness
// counters report per-form (not per-query) traffic for batches. A hit reads
// a prepared query's key and the fingerprint it was prepared with, nothing
// else; only a miss asks it for the parsed query.
//
// The returned labels and errors are aligned with ps; positions sharing a
// canonical form share the outcome. Labeling errors are never cached.
// Callers must treat returned labels as immutable, as with Label.
func (l *CachedLabeler) LabelBatchCanonical(ps []*cq.Prepared) ([]Label, []error) {
	if len(ps) == 1 {
		// A batch of one — every single Submit and Decide — has nothing to
		// group and nothing to label concurrently.
		p := ps[0]
		lbl, ok := l.cache.Get(p.Fingerprint, p.Key)
		var err error
		if !ok {
			lbl, err = l.labelMiss(p.Fingerprint, p.Key, p.Query())
		}
		return []Label{lbl}, []error{err}
	}
	labels := make([]Label, len(ps))
	errs := make([]error, len(ps))

	// Group batch positions by canonical form, preserving first-seen order.
	groups := make(map[string][]int, len(ps))
	order := make([]string, 0, len(ps))
	for i, p := range ps {
		k := p.Key
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	// One counted lookup per distinct form; collect the misses.
	missed := order[:0]
	for _, k := range order {
		if lbl, ok := l.cache.Get(ps[groups[k][0]].Fingerprint, k); ok {
			for _, i := range groups[k] {
				labels[i] = lbl
			}
			continue
		}
		missed = append(missed, k)
	}

	// Label the missed forms concurrently (each is independent read-only
	// work against the wrapped labeler) and fan each outcome out to every
	// position that shares the form.
	var wg sync.WaitGroup
	for _, k := range missed {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			idx := groups[k]
			lbl, err := l.labelMiss(ps[idx[0]].Fingerprint, k, ps[idx[0]].Query())
			for _, i := range idx {
				labels[i], errs[i] = lbl, err
			}
		}(k)
	}
	wg.Wait()
	return labels, errs
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
