package label

import "repro/internal/cq"

// Sight offers q's label to the cache as a first miss does, without
// counting a lookup: the cache remembers its fingerprint and keeps its
// label on the next miss.
func (l *CachedLabeler) Sight(q *cq.Query) {
	key := cq.CanonicalKey(q)
	lbl, err := l.inner.Label(q)
	l.keep(cq.FingerprintKey(key), key, lbl, err)
}
