package cq

import (
	"hash/maphash"
	"sync/atomic"

	"repro/internal/clockcache"
)

// This file is the front of the submit path: the prepared query — what a
// submission is once its text has been read — and the memo that resolves a
// text the node has seen before to its prepared query without parsing or
// canonicalizing it again. The canonical key is this system's id for a
// query; a byte-identical text is resolved to it once, and everything
// behind the socket then trades in the id.

// Prepared is a query ready to submit: its canonical key and that key's
// fingerprint, its head name and the text it was read from. It is immutable
// and may be shared by any number of concurrent submissions. A label-cache
// or plan-cache hit — the paper's expected regime — reads nothing else; the
// parsed query is reached through Query, by the few callers that label or
// compile.
type Prepared struct {
	// Src is the exact source text, empty for a query that never had one
	// (PrepareQuery).
	Src string
	// Key is the query's canonical key (CanonicalKey).
	Key string
	// Name is the query's head name.
	Name string
	// Fingerprint is FingerprintKey(Key), hashed once here: the label cache,
	// the plan cache, the audit record and the decision RPC all read it.
	Fingerprint uint64
	// q is the parsed query; nil in a memoized entry, which keeps the text
	// and parses it again on demand.
	q *Query
}

// PrepareQuery wraps an already-built query, canonicalizing it once.
func PrepareQuery(q *Query) *Prepared {
	key := CanonicalKey(q)
	return &Prepared{Key: key, Name: q.Name, Fingerprint: FingerprintKey(key), q: q}
}

// prepareText parses and canonicalizes a source text.
func prepareText(src string) (*Prepared, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	p := PrepareQuery(q)
	p.Src = src
	return p, nil
}

// Query returns the parsed query. Callers must not modify it: a wrapped
// query is its builder's, and one parsed here may be shared by a batch.
func (p *Prepared) Query() *Query {
	if p.q != nil {
		return p.q
	}
	q, err := ParseQuery(p.Src)
	if err != nil {
		// The memo stores only texts that parsed; the parser is a function
		// of its input.
		panic("cq: memoized query text no longer parses: " + err.Error())
	}
	return q
}

const (
	// memoCapacity bounds the memo's entries. It matches the label and plan
	// caches' default: a template space that fits those fits here in every
	// spelling clients use.
	memoCapacity = 4096
	// MaxMemoText is the longest text the memo keeps; a longer one is
	// prepared on every submission. Generated 15-atom templates stay under
	// 1.4 KB. With memoCapacity it bounds the memo's footprint: an entry
	// holds its text once as the lookup key and a canonical key at most
	// about three times as long (every one-letter variable rendered
	// "vNNN, "), so the worst case is memoCapacity × MaxMemoText × 4 = 32
	// MiB, and traffic of 200-byte templates fills it to under 2 MiB.
	MaxMemoText = 2 << 10
	// seenBuckets × seenWays text fingerprints remember first sightings.
	seenBuckets = 4096
	seenWays    = 4
)

// Memo maps the exact bytes of a query text to its prepared query. It is
// sound by construction: a hit returns what ParseQuery and CanonicalKey
// returned for those same bytes, and nothing derived from any state — no
// label, no decision, no plan — is stored. It is bounded (clockcache's
// sharded clock eviction, memoCapacity entries of at most MaxMemoText
// bytes) and scan-resistant: a text is admitted on its second sighting, so
// a stream of never-repeated templates is served without churning the memo
// or leaving anything behind. A Memo is safe for concurrent use.
type Memo struct {
	seed  maphash.Seed
	cache *clockcache.Cache[*Prepared]
	// seen holds the fingerprints of recently missed texts, newest first
	// within a bucket. Four ways rather than a direct-mapped table: two
	// texts of a cycling template pool that share a direct-mapped slot
	// overwrite each other on every round and are never admitted, and a
	// pool of 1000 has ≈ 60 such pairs in 8192 slots; five texts have to
	// share a bucket here. A torn update between racing misses costs an
	// admission one more sighting, nothing else.
	seen [seenBuckets][seenWays]atomic.Uint32
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{seed: maphash.MakeSeed(), cache: clockcache.New[*Prepared](memoCapacity)}
}

// Prepare returns the prepared query of a source text: the memoized one
// when these exact bytes are resident, a freshly parsed and canonicalized
// one otherwise. src is only read, and not retained.
func (m *Memo) Prepare(src []byte) (*Prepared, error) {
	if len(src) > MaxMemoText {
		return prepareText(string(src))
	}
	fp := maphash.Bytes(m.seed, src)
	if p, ok := m.cache.GetBytes(fp, src); ok {
		return p, nil
	}
	p, err := prepareText(string(src))
	if err != nil {
		return nil, err
	}
	if m.seenBefore(fp) {
		// The entry shares the text with its own lookup key and the name
		// with the text, and drops the parsed query: at ≈ 1.1 KB for a
		// 200-byte template that would be four fifths of the entry, and
		// nothing on a hit reads it.
		m.cache.Add(fp, p.Src, &Prepared{Src: p.Src, Key: p.Key, Name: p.Name, Fingerprint: p.Fingerprint})
	}
	return p, nil
}

// seenBefore reports whether fp is among the recently missed fingerprints,
// and records it as the newest of its bucket when not.
func (m *Memo) seenBefore(fp uint64) bool {
	b := &m.seen[(fp>>32)%seenBuckets]
	tag := uint32(fp) | 1 // never the empty slot's zero
	for i := range b {
		if b[i].Load() == tag {
			return true
		}
	}
	for i := seenWays - 1; i > 0; i-- {
		b[i].Store(b[i-1].Load())
	}
	b[0].Store(tag)
	return false
}

// MemoStats is a point-in-time snapshot of the memo's effectiveness
// counters. Texts over MaxMemoText are not looked up and count as neither
// hit nor miss.
type MemoStats = clockcache.Stats

// Stats aggregates the memo's counters.
func (m *Memo) Stats() MemoStats { return m.cache.Stats() }
