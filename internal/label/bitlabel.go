package label

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// AtomLabel is the compressed disclosure label of a single-atom view: the
// set ℓ⁺(V) of security views that uniquely determine V, packed into a
// 64-bit integer whose low 32 bits identify the base relation and whose
// high 32 bits are a membership mask over that relation's security views
// (Section 6.1 of the paper). Relations with more than 32 security views
// spill the remaining mask bits into the Spill slice; the paper notes there
// is nothing special about the number 32.
//
// The zero AtomLabel (relation id 0, empty mask) is ⊤: a view whose
// information content exceeds every security view. Labels are compared by
// set inclusion: info(a) ≼ info(b) precisely when ℓ⁺(a) ⊇ ℓ⁺(b).
type AtomLabel struct {
	Packed uint64
	Spill  []uint64 // mask bits 32+, nil for relations with ≤32 views
}

// TopAtomLabel returns ⊤, the label of an atom no security view determines.
func TopAtomLabel() AtomLabel { return AtomLabel{} }

// NewAtomLabel returns an empty label for the given relation id, reserving
// spill capacity when the relation carries more than 32 security views.
func NewAtomLabel(relID uint32, nviews int) AtomLabel {
	a := AtomLabel{Packed: uint64(relID)}
	if nviews > 32 {
		a.Spill = make([]uint64, (nviews-32+63)/64)
	}
	return a
}

// RelID returns the relation id (0 for ⊤).
func (a AtomLabel) RelID() uint32 { return uint32(a.Packed & 0xFFFFFFFF) }

// Mask returns the low 32 mask bits.
func (a AtomLabel) Mask() uint32 { return uint32(a.Packed >> 32) }

// SetBit records that the security view with the given per-relation bit
// position determines this atom.
func (a *AtomLabel) SetBit(bit int) {
	if bit < 32 {
		a.Packed |= 1 << (32 + uint(bit))
		return
	}
	w, off := (bit-32)/64, uint(bit-32)%64
	for w >= len(a.Spill) {
		a.Spill = append(a.Spill, 0)
	}
	a.Spill[w] |= 1 << off
}

// HasBit reports whether the given per-relation bit is set.
func (a AtomLabel) HasBit(bit int) bool {
	if bit < 32 {
		return a.Packed&(1<<(32+uint(bit))) != 0
	}
	w, off := (bit-32)/64, uint(bit-32)%64
	return w < len(a.Spill) && a.Spill[w]&(1<<off) != 0
}

// Empty reports whether the mask has no bits set.
func (a AtomLabel) Empty() bool {
	if a.Packed>>32 != 0 {
		return false
	}
	for _, w := range a.Spill {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsTop reports whether the label is ⊤ (empty ℓ⁺ set).
func (a AtomLabel) IsTop() bool { return a.Empty() }

// Count returns |ℓ⁺|.
func (a AtomLabel) Count() int {
	n := bits.OnesCount32(a.Mask())
	for _, w := range a.Spill {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bits returns the set per-relation bit positions in increasing order.
func (a AtomLabel) Bits() []int {
	var out []int
	m := a.Mask()
	for m != 0 {
		b := bits.TrailingZeros32(m)
		out = append(out, b)
		m &^= 1 << uint(b)
	}
	for wi, w := range a.Spill {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, 32+wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// BelowEq reports info(a) ≼ info(b), i.e. ℓ⁺(a) ⊇ ℓ⁺(b): every security
// view in b's set must be in a's set. ⊤ (empty set) is above everything;
// labels over different relations are comparable only against ⊤.
func (a AtomLabel) BelowEq(b AtomLabel) bool {
	if b.Empty() {
		return true // everything is below ⊤
	}
	if a.RelID() != b.RelID() {
		return false
	}
	// b.mask ⊆ a.mask on both the packed word and the spills.
	if uint64(b.Mask())&^uint64(a.Mask()) != 0 {
		return false
	}
	for i, bw := range b.Spill {
		var aw uint64
		if i < len(a.Spill) {
			aw = a.Spill[i]
		}
		if bw&^aw != 0 {
			return false
		}
	}
	return true
}

// EquivTo reports that a and b carry equivalent information (mutual
// BelowEq; for atom labels this is plain set equality of ℓ⁺).
func (a AtomLabel) EquivTo(b AtomLabel) bool {
	return a.BelowEq(b) && b.BelowEq(a)
}

// Key returns a map key identifying the label's ℓ⁺ set.
func (a AtomLabel) Key() string {
	if len(a.Spill) == 0 {
		return fmt.Sprintf("%x", a.Packed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%x", a.Packed)
	for _, w := range a.Spill {
		fmt.Fprintf(&b, ":%x", w)
	}
	return b.String()
}

// Label is the disclosure label of a (multi-atom) query: one AtomLabel per
// dissected single-atom view (Section 6.1 extends the packed representation
// to arrays). The information content of the label is the least upper bound
// of the information of its atoms.
type Label struct {
	Atoms []AtomLabel
}

// BottomLabel returns the label of the empty query set: below everything.
func BottomLabel() Label { return Label{} }

// IsBottom reports whether the label carries no information requirement.
func (l Label) IsBottom() bool { return len(l.Atoms) == 0 }

// HasTop reports whether some dissected atom is not determined by any
// security view; such queries can never be permitted by a view-based
// policy.
func (l Label) HasTop() bool {
	for _, a := range l.Atoms {
		if a.IsTop() {
			return true
		}
	}
	return false
}

// BelowEq reports info(l) ≼ info(m): every atom of l must be below some
// atom of m. This is the O(r·s) comparison of Section 6.1, justified by the
// decomposability of the single-atom universe.
func (l Label) BelowEq(m Label) bool {
	for _, a := range l.Atoms {
		ok := false
		for _, b := range m.Atoms {
			if a.BelowEq(b) {
				ok = true
				break
			}
		}
		// Note a ⊤ atom is below b only when b is itself ⊤, which
		// AtomLabel.BelowEq already handles.
		if !ok {
			return false
		}
	}
	return true
}

// EquivTo reports mutual BelowEq.
func (l Label) EquivTo(m Label) bool { return l.BelowEq(m) && m.BelowEq(l) }

// Join returns the least upper bound of the two labels: the union of their
// atoms, normalized.
func (l Label) Join(m Label) Label {
	out := Label{Atoms: append(append([]AtomLabel(nil), l.Atoms...), m.Atoms...)}
	return out.Normalize()
}

// Normalize removes duplicate and dominated atoms: an atom whose
// information is below another atom's contributes nothing to the LUB.
// Atoms are sorted for deterministic output. The result is a fresh slice
// of exactly the surviving atoms; l is not modified.
func (l Label) Normalize() Label {
	n := len(l.Atoms)
	if n == 0 {
		return Label{}
	}
	var small [4]uint64
	dominated := small[:]
	if n > 64*len(small) {
		dominated = make([]uint64, (n+63)/64)
	}
	keep := n
	for i, a := range l.Atoms {
		for j, b := range l.Atoms {
			// Break ties (equivalent labels) by index so exactly one copy
			// survives.
			if i != j && a.BelowEq(b) && (!b.BelowEq(a) || j < i) {
				dominated[i/64] |= 1 << (i % 64)
				keep--
				break
			}
		}
	}
	kept := make([]AtomLabel, 0, keep)
	for i, a := range l.Atoms {
		if dominated[i/64]&(1<<(i%64)) == 0 {
			kept = append(kept, a)
		}
	}
	slices.SortFunc(kept, AtomLabel.compare)
	return Label{Atoms: kept}
}

// compare is an arbitrary but deterministic total order used to
// canonicalize atom order within a label.
func (a AtomLabel) compare(b AtomLabel) int {
	if c := cmp.Compare(a.Packed, b.Packed); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.Spill), len(b.Spill)); c != 0 {
		return c
	}
	return slices.Compare(a.Spill, b.Spill)
}

// Render renders the label with view names resolved through the catalog,
// e.g. "{user_basic, user_likes} ⊗ {friends}". ⊤ atoms render as "⊤".
func (l Label) Render(c *Catalog) string {
	if l.IsBottom() {
		return "⊥"
	}
	parts := make([]string, 0, len(l.Atoms))
	for _, a := range l.Atoms {
		if a.IsTop() {
			parts = append(parts, "⊤")
			continue
		}
		parts = append(parts, "{"+strings.Join(c.ViewNamesOf(a), ", ")+"}")
	}
	return strings.Join(parts, " ⊗ ")
}
