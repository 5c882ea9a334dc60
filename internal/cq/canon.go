package cq

// This file implements the canonical form used by the labeling fast path:
// a deterministic isomorph of a query (renaming-invariant atom order plus
// variable renaming in first-occurrence order) and a 64-bit fingerprint of
// its rendering. Two queries with equal canonical keys are isomorphic and
// hence equivalent, so canonical equality is a sound constant-false-negative
// fast path in front of the exponential homomorphism search, and the
// fingerprint is a cache key for memoized labeling: app-ecosystem traffic is
// dominated by a small template space (Section 7.2's workload generator), so
// the same canonical form recurs millions of times under different variable
// names and atom orders.
//
// The renaming-invariant atom order comes from color refinement: variables
// start colored by their role (distinguished variables additionally by
// their head positions), and each round recolors every variable with the
// hash of its occurrences — (atom-hash, position) pairs — so structural
// context propagates one join hop per round, disambiguating atoms that a
// single-atom shape key would tie (e.g. the middle atoms of a path query).
// Remaining ties (automorphic atoms, or hash collisions) keep their original
// relative order — a false-negative source for the fast path, never a false
// positive, since the canonical key always renders the actual atoms.
//
// The hot path runs on the query's interned form (form.go): variable names
// resolved to dense ids once, the refinement on integer arrays, and exactly
// one string built: the key.

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// FNV-1a, inlined to avoid a hash.Hash64 allocation on the hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FingerprintKey returns the 64-bit FNV-1a hash of a canonical key.
func FingerprintKey(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// mixString folds a string into a running FNV-1a hash.
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix folds a 64-bit value into a running hash (xor-multiply-shift; full
// avalanche is not required — hash ties only merge refinement classes,
// which costs fast-path recall, never soundness).
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// refine computes the canonical atom order (see the file comment).
func (f *Form) refine() {
	n := len(f.body)

	// Initial colors: existential = 1; distinguished = hash of the head
	// positions where the variable occurs (head order is significant).
	f.color = grow(f.color, f.nVars)
	for i := range f.color {
		f.color[i] = 1
	}
	for pos, vid := range f.headID {
		if vid >= 0 {
			if f.color[vid] == 1 {
				f.color[vid] = fnvOffset64
			}
			f.color[vid] = mix(f.color[vid], uint64(pos)+2)
		}
	}

	f.atomHash = grow(f.atomHash, n)
	f.firstPos = grow(f.firstPos, f.nVars)
	f.order = grow(f.order, n)
	for i := range f.order {
		f.order[i] = i
	}
	if n == 1 {
		return
	}
	prevDistinct := 0
	for round := 0; ; round++ {
		f.hashAtoms()
		d := f.distinctAtomHashes()
		// Stop once every atom is distinguished, the refinement has
		// plateaued, or after n rounds (context propagates at most one hop
		// per round, so n rounds always reach the fixpoint partition).
		if d == n || d == prevDistinct || round == n {
			break
		}
		prevDistinct = d
		f.recolor()
	}
	slices.SortStableFunc(f.order, func(a, b int) int {
		return cmp.Compare(f.atomHash[a], f.atomHash[b])
	})
}

// hashAtoms computes the per-atom hash under the current variable coloring:
// relation, then per position the constant value or the variable color plus
// its intra-atom repetition pattern. firstPos packs (atom index << 16 |
// position), so a stored entry counts only for its own atom and the array
// needs resetting just once per round.
func (f *Form) hashAtoms() {
	for i := range f.firstPos {
		f.firstPos[i] = -1
	}
	for ai, a := range f.body {
		ids := f.argID[ai]
		h := mixString(uint64(fnvOffset64), a.Rel)
		for pos, t := range a.Args {
			vid := ids[pos]
			if vid < 0 {
				h = mixString(mix(h, 0xC0), t.Value)
				continue
			}
			h = mix(mix(h, 0x7A), f.color[vid])
			if packed := f.firstPos[vid]; packed >= 0 && packed>>16 == int32(ai) {
				h = mix(h, uint64(packed&0xFFFF)+1)
			} else {
				f.firstPos[vid] = int32(ai)<<16 | int32(pos)
			}
		}
		f.atomHash[ai] = h
	}
}

// distinctAtomHashes counts distinct atom hashes (n is small: quadratic).
func (f *Form) distinctAtomHashes() int {
	d := 0
	for i, h := range f.atomHash {
		dup := false
		for j := 0; j < i; j++ {
			if f.atomHash[j] == h {
				dup = true
				break
			}
		}
		if !dup {
			d++
		}
	}
	return d
}

// recolor folds each variable's sorted occurrence multiset — (atom hash,
// position) pairs — into its color.
func (f *Form) recolor() {
	// Bucket occurrence hashes per variable in one flat array.
	offs := grow(f.occOffs, f.nVars+1)
	offs[0] = 0
	for vid, cnt := range f.occCnt {
		offs[vid+1] = offs[vid] + cnt
	}
	flat := grow(f.occFlat, int(offs[f.nVars]))
	fill := grow(f.occFill, f.nVars)
	clear(fill)
	f.occOffs, f.occFlat, f.occFill = offs, flat, fill
	for ai := range f.body {
		h := f.atomHash[ai]
		for pos, vid := range f.argID[ai] {
			if vid >= 0 {
				flat[offs[vid]+fill[vid]] = mix(h, uint64(pos)+1)
				fill[vid]++
			}
		}
	}
	for vid := 0; vid < f.nVars; vid++ {
		os := flat[offs[vid]:offs[vid+1]]
		if len(os) == 0 {
			continue
		}
		slices.Sort(os)
		h := f.color[vid]
		for _, o := range os {
			h = mix(h, o)
		}
		f.color[vid] = h
	}
}

// render writes the canonical key: head then body in canonical order, with
// variables renamed v0, v1, ... in first-occurrence order (head first).
func (f *Form) render() string {
	ren := grow(f.ren, f.nVars)
	f.ren = ren
	for i := range ren {
		ren[i] = -1
	}
	next := int32(0)
	var b strings.Builder
	size := 8
	for _, t := range f.head {
		size += len(t.Value) + 6
	}
	for _, a := range f.body {
		size += len(a.Rel) + 4
		for _, t := range a.Args {
			size += len(t.Value) + 6
		}
	}
	b.Grow(size)
	writeVar := func(vid int32) {
		if ren[vid] < 0 {
			ren[vid] = next
			next++
		}
		n := ren[vid]
		b.WriteByte('v')
		if n < 10 {
			b.WriteByte(byte('0' + n))
		} else {
			b.WriteString(strconv.Itoa(int(n)))
		}
	}
	writeConst := func(v string) {
		writeEscapedConst(&b, v)
	}
	b.WriteByte('(')
	for i, t := range f.head {
		if i > 0 {
			b.WriteString(", ")
		}
		if vid := f.headID[i]; vid >= 0 {
			writeVar(vid)
		} else {
			writeConst(t.Value)
		}
	}
	b.WriteString(") :- ")
	for i, ai := range f.order {
		if i > 0 {
			b.WriteString(", ")
		}
		a := f.body[ai]
		ids := f.argID[ai]
		writeRel(&b, a.Rel)
		b.WriteByte('(')
		for j, t := range a.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			if vid := ids[j]; vid >= 0 {
				writeVar(vid)
			} else {
				writeConst(t.Value)
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// CanonicalKey returns the canonical rendering of q: equal keys imply the
// queries are isomorphic (equal up to variable renaming and body-atom
// reordering) and therefore equivalent. The key excludes the query name.
func CanonicalKey(q *Query) string {
	f := intern(q.Head, q.Body)
	f.refine()
	key := f.render()
	f.Release()
	return key
}

// writeEscapedConst writes 'value' with backslash-escaped quotes and
// backslashes, so the rendering is injective: a constant containing "', '"
// cannot masquerade as an argument separator and collapse two distinct
// queries onto one canonical key (the cache and the Equivalent fast path
// both rely on key equality implying isomorphism).
func writeEscapedConst(b *strings.Builder, v string) {
	b.WriteByte('\'')
	if !strings.ContainsAny(v, `'\`) {
		b.WriteString(v)
	} else {
		for i := 0; i < len(v); i++ {
			if c := v[i]; c == '\'' || c == '\\' {
				b.WriteByte('\\')
			}
			b.WriteByte(v[i])
		}
	}
	b.WriteByte('\'')
}

// writeRel writes a relation name, quoting it like a constant when it
// contains key syntax characters: schema.NewRelation accepts arbitrary
// non-empty names, so an atom whose relation is the crafted string
// "S(v0), R" must not render byte-identically to two real atoms. Clean
// names render bare and never contain a quote, so the two encodings cannot
// collide.
func writeRel(b *strings.Builder, rel string) {
	if strings.ContainsAny(rel, `'\(), `) {
		writeEscapedConst(b, rel)
		return
	}
	b.WriteString(rel)
}

// CanonicallyEqual reports whether two queries have the same canonical form.
// True implies Equivalent; false implies nothing (equivalent queries with
// non-isomorphic minimal bodies, or tie-ordered atoms, may canonicalize
// differently).
func CanonicallyEqual(q1, q2 *Query) bool {
	if len(q1.Head) != len(q2.Head) || len(q1.Body) != len(q2.Body) {
		return false
	}
	return CanonicalKey(q1) == CanonicalKey(q2)
}

// Fingerprint returns a 64-bit fingerprint of q's canonical form. Isomorphic
// queries always collide (by design: the fingerprint is a cache-shard key);
// distinct canonical forms collide with probability ~2^-64, so callers that
// cannot tolerate collisions must also compare CanonicalKey.
func Fingerprint(q *Query) uint64 {
	return FingerprintKey(CanonicalKey(q))
}
