package cq

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestStringRoundTripsEscapes: a constant holding a quote or a backslash
// renders with the escaping the parser reads, so the rendering parses back
// to the same query. Unescaped, the first text's rendering did not parse,
// the second's parsed to a different constant, and the third's — one atom —
// parsed as two.
func TestStringRoundTripsEscapes(t *testing.T) {
	for _, src := range []string{
		`Q(x) :- R(x, "it's")`,
		`Q(x) :- R(x, 'a\\b')`,
		`Q(x) :- R(x, 'a\'), S(y, \'b')`,
	} {
		q := MustParse(src)
		if len(q.Body) != 1 {
			t.Fatalf("%s parsed to %d atoms, want 1", src, len(q.Body))
		}
		back, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("%s renders as %s, which does not parse: %v", src, q, err)
		}
		if !q.Equal(back) || CanonicalKey(q) != CanonicalKey(back) {
			t.Errorf("%s renders as %s, which parses to %s", src, q, back)
		}
	}
}

// FuzzParseQuery: the parser never panics, and whatever it accepts renders
// to a text it accepts again as the same query — the property the decision
// RPC rests on when it ships a rendering.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"Q1(x) :- Meetings(x, 'Cathy')",
		"Q2(x, y) :- Meetings(x, y), Contacts(y, w, 'Intern') AND S(w, -1.5)",
		"V5() :- Meetings(x, y) ∧ M(y, \"it's\")",
		`Q(x) :- R(x, 'a\'), S(y, \'b')`,
		`Q(x) :- R(x, 'a\\'), S(y, '\\')`,
		"Q(x) :− R(x, 'tab\there', '')",
		"Q('c', x) :- R(x, x, 12.), R(é, x)",
		"Q(x) :- R(x, 'unterminated",
		"Q(x :- R(x)",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		back, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("accepted %q, but its rendering %q does not parse: %v", src, q, err)
		}
		if CanonicalKey(q) != CanonicalKey(back) {
			t.Fatalf("%q renders as %q, which is a different query:\n %s\n %s", src, q, CanonicalKey(q), CanonicalKey(back))
		}
		for _, a := range q.Body {
			if cap(a.Args) != len(a.Args) {
				t.Fatalf("%q: atom %s has %d arguments in capacity %d", src, a, len(a.Args), cap(a.Args))
			}
		}
	})
}

// FuzzPreparedForm is the canonical form's metamorphic target: for any
// text the memo prepares exactly what ParseQuery and CanonicalKey give
// (key, name, error text), on a first sighting and on a memo hit, and the
// fold of the prepared form is the fold of the parsed query. For an
// accepted text, a renamed, atom-permuted rendering is equivalent to it,
// and when its key is equal a homomorphism search — not the key compare
// Equivalent short-cuts to — confirms it.
func FuzzPreparedForm(f *testing.F) {
	// FuzzParseQuery's seeds, an unsafe head, and unsafe text followed by
	// trailing input (the safety error comes first).
	for _, s := range []string{
		"Q1(x) :- Meetings(x, 'Cathy')",
		"Q2(x, y) :- Meetings(x, y), Contacts(y, w, 'Intern') AND S(w, -1.5)",
		"V5() :- Meetings(x, y) ∧ M(y, \"it's\")",
		`Q(x) :- R(x, 'a\'), S(y, \'b')`,
		`Q(x) :- R(x, 'a\\'), S(y, '\\')`,
		"Q(x) :− R(x, 'tab\there', '')",
		"Q('c', x) :- R(x, x, 12.), R(é, x)",
		"Q(x) :- R(x, 'unterminated",
		"Q(x :- R(x)",
		"",
		"Q(x, lost) :- R(x, y)",
		"Q(lost) :- R(x) trailing",
		"Q(x) :- R(x, y), R(y, z), R(z, x), R(x, x)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		q, err := ParseQuery(src)
		wantKey, wantName, wantErr := "", "", errText(err)
		if err == nil {
			wantKey, wantName = CanonicalKey(q), q.Name
		}
		m := NewMemo()
		for i := 0; i < 3; i++ { // a miss, an admission, a hit
			p, err := m.Prepare([]byte(src))
			key, name := "", ""
			if p != nil {
				key, name = p.Key, p.Name
			}
			if key != wantKey || name != wantName || errText(err) != wantErr {
				t.Fatalf("%q, sighting %d: prepared (%q, %q, %v), want (%q, %q, %s)", src, i+1, key, name, err, wantKey, wantName, wantErr)
			}
			if err != nil {
				return
			}
			pf, err := p.Fold()
			if err != nil {
				t.Fatalf("%q: prepared form refused: %v", src, err)
			}
			qf, _ := Fold(q)
			for a := range q.Body {
				if pf.Alive(a) != qf.Alive(a) {
					t.Fatalf("%q: the prepared fold keeps atom %d %v, the parsed query's %v", src, a, pf.Alive(a), qf.Alive(a))
				}
			}
			if pf.Exhausted() != qf.Exhausted() {
				t.Fatalf("%q: fold budget exhausted %v on the prepared form, %v on the parsed query", src, pf.Exhausted(), qf.Exhausted())
			}
			pf.Release()
			qf.Release()
		}

		ren := func(t Term) Term {
			if t.IsVar() {
				return V("r_" + t.Value)
			}
			return t
		}
		c := &Query{Name: q.Name, Head: make([]Term, len(q.Head))}
		for i, t := range q.Head {
			c.Head[i] = ren(t)
		}
		for i := range q.Body {
			a := q.Body[(i+1)%len(q.Body)].Clone() // rotated
			for j, t := range a.Args {
				a.Args[j] = ren(t)
			}
			c.Body = append(c.Body, a)
		}
		cp, err := m.Prepare([]byte(c.String()))
		if err != nil {
			t.Fatalf("%q: renamed copy %q refused: %v", src, c, err)
		}
		if !Equivalent(q, c) {
			t.Fatalf("%q is not equivalent to its renamed copy %q", src, c)
		}
		// The search is exponential in the atoms: bounded inputs only.
		if cp.Key == wantKey && len(q.Body) <= 16 &&
			(FindHomomorphism(q, c) == nil || FindHomomorphism(c, q) == nil) {
			t.Fatalf("%q and %q share key %q but are not equivalent", src, c, wantKey)
		}
	})
}

// TestValidateLargeHead: head safety is checked the same way on either side
// of validateScanLimit — the set-based pass finds the one head variable
// missing from a body far past the limit (40 atoms, within MaxBodyAtoms, of
// 10 terms each).
func TestValidateLargeHead(t *testing.T) {
	var head, body []string
	for i := 0; i < 200; i++ {
		head = append(head, fmt.Sprintf("x%d", i))
	}
	for i := 0; i < 200; i += 5 {
		body = append(body, fmt.Sprintf("R(x%d, x%d, x%d, x%d, x%d, y%d, y%d, y%d, y%d, y%d)",
			i, i+1, i+2, i+3, i+4, i, i+1, i+2, i+3, i+4))
	}
	safe := "Q(" + strings.Join(head, ", ") + ") :- " + strings.Join(body, ", ")
	if _, err := ParseQuery(safe); err != nil {
		t.Fatalf("safe 200-variable head rejected: %v", err)
	}
	unsafe := "Q(" + strings.Join(head, ", ") + ", lost) :- " + strings.Join(body, ", ")
	if _, err := ParseQuery(unsafe); err == nil || !strings.Contains(err.Error(), "head variable lost") {
		t.Fatalf("unsafe head: err = %v, want the missing variable named", err)
	}
}

// memoTexts returns n distinct query texts.
func memoTexts(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("Q%d(x) :- R(x, y%d), S(y%d, 'c%d')", i, i, i, i))
	}
	return out
}

// TestMemoBounds pins the memo's admission and its bounds: texts seen once
// leave nothing behind, texts seen twice fill it to capacity and no further,
// and a text over MaxMemoText is served and never kept.
func TestMemoBounds(t *testing.T) {
	m := NewMemo()
	texts := memoTexts(20000)
	for _, src := range texts {
		if _, err := m.Prepare(src); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 20000 {
		t.Fatalf("20000 texts seen once: %s, want an empty memo and 20000 misses", st)
	}
	// Each text again right after itself: every second sighting admits.
	for _, src := range texts {
		for i := 0; i < 2; i++ {
			if _, err := m.Prepare(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m.Stats()
	if st.Entries != st.Capacity || st.Capacity != memoCapacity || st.Evictions == 0 {
		t.Fatalf("20000 texts seen twice: %s, want the memo at its capacity of %d with evictions", st, memoCapacity)
	}

	long := []byte("Long(x) :- R(x, '" + strings.Repeat("c", MaxMemoText) + "')")
	for i := 0; i < 3; i++ {
		p, err := m.Prepare(long)
		if err != nil || p.Name != "Long" {
			t.Fatalf("over-length text: (%v, %v)", p, err)
		}
	}
	if after := m.Stats(); after != st {
		t.Fatalf("an over-length text moved the memo: %s, was %s", after, st)
	}
}

// TestMemoHitIsThePreparedQuery: the second sighting admits, the third
// hits, and the hit carries exactly what a fresh parse and canonicalization
// of those bytes give — key, name, text, and a query that renders the same.
func TestMemoHitIsThePreparedQuery(t *testing.T) {
	m := NewMemo()
	src := []byte(`Q(x, z) :- R(x, y), S(y, z, "it's"), T(z, 'lit')`)
	fresh := PrepareQuery(MustParse(string(src)))
	var hit *Prepared
	for i := 0; i < 3; i++ {
		p, err := m.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if p.Key != fresh.Key || p.Name != "Q" || p.Src != string(src) || p.Query().String() != fresh.Query().String() {
			t.Fatalf("sighting %d: prepared (%q, %q, %q), want key %q of %q", i+1, p.Name, p.Key, p.Src, fresh.Key, src)
		}
		hit = p
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("three sightings: %s, want 2 misses, then 1 hit on 1 entry", st)
	}
	src[0] = 'P' // the caller's buffer is its own again
	if hit.Src[0] != 'Q' || hit.Name != "Q" {
		t.Fatalf("the memoized entry aliases the caller's bytes: %q", hit.Src)
	}
	if _, err := m.Prepare([]byte("not datalog")); err == nil {
		t.Fatal("a text that does not parse was prepared")
	}
}

// TestMemoCyclingPool: a pool of texts submitted round-robin — the
// benchmark's warm workloads — is fully resident after two rounds, whatever
// collides in the first-sighting table.
func TestMemoCyclingPool(t *testing.T) {
	m := NewMemo()
	texts := memoTexts(2000)
	for round := 0; round < 2; round++ {
		for _, src := range texts {
			if _, err := m.Prepare(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := m.Stats()
	for _, src := range texts {
		if _, err := m.Prepare(src); err != nil {
			t.Fatal(err)
		}
	}
	if hits := m.Stats().Hits - before.Hits; hits < 1990 {
		t.Fatalf("third round of a 2000-text pool hit %d times, want ≥ 1990 (%s)", hits, m.Stats())
	}
}

// TestMemoConcurrent: goroutines preparing the same texts race on lookups,
// admissions and the first-sighting table; every result is the right one.
func TestMemoConcurrent(t *testing.T) {
	m := NewMemo()
	texts := memoTexts(50)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, src := range texts {
					p, err := m.Prepare(src)
					if err != nil || p.Name != fmt.Sprintf("Q%d", i) || p.Src != string(src) {
						t.Errorf("text %d: (%v, %v)", i, p, err)
						return
					}
					if q := p.Query(); len(q.Body) != 2 {
						t.Errorf("text %d parsed to %d atoms", i, len(q.Body))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
