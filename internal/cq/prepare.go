package cq

import (
	"hash/maphash"

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
// or plan-cache hit — the paper's expected regime — reads nothing else; a
// miss reads the query's prepared form (Form), interned once when the query
// was prepared, which the fold (Fold) and the plan compiler share.
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
	// form is the parsed query's prepared form; nil in a memoized entry,
	// which keeps the text and prepares it again on demand.
	form *PreparedForm
}

// PrepareQuery wraps an already-built query, interning it once for its key
// and its prepared form. An unsafe query (Query.Validate) is prepared too —
// its key is rendered as CanonicalKey renders it — and refused with
// Validate's error where its form is asked for (Form, Fold).
func PrepareQuery(q *Query) *Prepared {
	f := intern(q.Head, q.Body)
	defer f.Release()
	return prepare(q, f)
}

// preparedWithForm allocates a prepared query and its form together.
type preparedWithForm struct {
	p    Prepared
	form PreparedForm
}

// prepare renders q's key from its interned form f and keeps the form.
func prepare(q *Query, f *Form) *Prepared {
	f.refine()
	key := f.render()
	pf := &preparedWithForm{p: Prepared{Key: key, Name: q.Name, Fingerprint: FingerprintKey(key)}}
	if f.safe() {
		f.freeze(q, &pf.form)
	} else {
		pf.form = PreparedForm{q: q, unsafe: true}
	}
	pf.p.form = &pf.form
	return &pf.p
}

// prepareText parses a source text, interns it once, checks its safety from
// the ids and renders its key: the errors, key and name are ParseQuery's
// followed by CanonicalKey's, and the parsed query is read once.
func prepareText(src string) (*Prepared, error) {
	ps := parser{src: src}
	q, err := ps.parseQuery()
	if err != nil {
		return nil, err
	}
	f := intern(q.Head, q.Body)
	defer f.Release()
	if !f.safe() {
		return nil, q.Validate()
	}
	if err := ps.finish(); err != nil {
		return nil, err
	}
	p := prepare(q, f)
	p.Src = src
	return p, nil
}

// Query returns the parsed query. Callers must not modify it: a wrapped
// query is its builder's, and one parsed here may be shared by a batch.
func (p *Prepared) Query() *Query {
	if p.form != nil {
		return p.form.q
	}
	q, err := ParseQuery(p.Src)
	if err != nil {
		// The memo stores only texts that parsed; the parser is a function
		// of its input.
		panic("cq: memoized query text no longer parses: " + err.Error())
	}
	return q
}

// Form returns the query's prepared form — a memoized entry's text is
// prepared again — or, for an unsafe query, Query.Validate's error.
func (p *Prepared) Form() (*PreparedForm, error) {
	pf := p.form
	if pf == nil {
		r, err := prepareText(p.Src)
		if err != nil {
			panic("cq: memoized query text no longer prepares: " + err.Error())
		}
		pf = r.form
	}
	if pf.unsafe {
		return nil, pf.q.Validate()
	}
	return pf, nil
}

// Fold folds the prepared form in the query's own atom order: the form Fold
// returns for Query(), without interning the query again. The caller must
// Release it.
func (p *Prepared) Fold() (*Form, error) {
	pf, err := p.Form()
	if err != nil {
		return nil, err
	}
	f := pf.load()
	f.fold()
	f.countAtoms()
	return f, nil
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
)

// Memo maps the exact bytes of a query text to its prepared query. It is
// sound by construction: a hit returns what ParseQuery and CanonicalKey
// returned for those same bytes, and nothing derived from any state — no
// label, no decision, no plan — is stored. It is bounded (clockcache's
// sharded clock eviction, memoCapacity entries of at most MaxMemoText
// bytes) and scan-resistant (clockcache's admission: a text is kept on its
// second sighting), so a stream of never-repeated templates is served
// without churning the memo or leaving anything behind. A Memo is safe for
// concurrent use.
type Memo struct {
	seed  maphash.Seed
	cache *clockcache.Cache[*Prepared]
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
	// The entry, built only if the text is kept, shares the text with its
	// own lookup key and the name with the text, and drops the parsed
	// query and its form: they would be most of the entry's bytes, and
	// nothing on a hit reads them.
	m.cache.AddFunc(fp, p.Src, func() *Prepared {
		return &Prepared{Src: p.Src, Key: p.Key, Name: p.Name, Fingerprint: p.Fingerprint}
	})
	return p, nil
}

// MemoStats is a point-in-time snapshot of the memo's effectiveness
// counters. Texts over MaxMemoText are not looked up and count as neither
// hit nor miss.
type MemoStats = clockcache.Stats

// Stats aggregates the memo's counters.
func (m *Memo) Stats() MemoStats { return m.cache.Stats() }
