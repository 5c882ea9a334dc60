package engine

import (
	"encoding/binary"
	"hash/maphash"
	"strings"
	"sync"
)

// This file is the dictionary: every constant string interned to a dense
// uint32 id, stored without a pointer per string. A string is one 16-byte
// slot — a length word and twelve bytes that hold the string itself when it
// fits, or else the offset of its bytes in one append-only arena — and the
// string → id direction is an open-addressed table of ids compared against
// slot bytes. The collector sees three flat slices however many strings
// there are, and an encoder reads a short cell's bytes out of the slot it
// already loaded.

// slotInline is how many bytes of a string its slot holds itself; a longer
// string's bytes live in the arena.
const slotInline = 12

// A slot's length word is the string's byte count, with plainBit set when
// every byte is plain (PlainByte).
const (
	plainBit = 1 << 31
	lenMask  = plainBit - 1
)

// strSlot is one interned string: its length word, then either the string
// (at most slotInline bytes) or the little-endian uint64 offset of its bytes
// in the arena.
type strSlot struct {
	word  uint32
	bytes [slotInline]byte
}

// plainBytes[c] is PlainByte(c).
var plainBytes = func() (plain [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		plain[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return plain
}()

// PlainByte reports whether byte c is plain: printable ASCII other than the
// quote, the backslash and the three characters HTML escaping rewrites (<, >
// and &) — a byte that stands for itself inside a JSON string as
// encoding/json writes one. The dictionary records, once per string,
// whether all of its bytes are plain, so an encoder can copy such a value
// between quotes without looking at it (Answer.AppendRow).
func PlainByte(c byte) bool { return plainBytes[c] }

// isPlain reports whether every byte of s is plain.
func isPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainBytes[s[i]] {
			return false
		}
	}
	return true
}

// dict is an immutable prefix of the dictionary: the strings of ids
// [0, len(slots)). A snapshot captures one, and answers and table views
// read strings through it.
type dict struct {
	slots []strSlot
	arena []byte
}

// len returns the number of strings the view covers.
func (d dict) len() int { return len(d.slots) }

// slotBytes returns the bytes of the string in slot s, one of d's,
// aliasing the dictionary, and whether they are all plain.
func (d dict) slotBytes(s *strSlot) ([]byte, bool) {
	n := s.word & lenMask
	if n <= slotInline {
		return s.bytes[:n:n], s.word&plainBit != 0
	}
	off := binary.LittleEndian.Uint64(s.bytes[:8])
	return d.arena[off : off+uint64(n) : off+uint64(n)], s.word&plainBit != 0
}

// bytes returns the bytes of string id, aliasing the dictionary.
func (d dict) bytes(id uint32) []byte {
	b, _ := d.slotBytes(&d.slots[id])
	return b
}

// prefixKey returns the first eight bytes of string id as a big-endian
// integer, a shorter string padded with zero bytes: keys that differ order
// their strings as bytes.Compare does, and equal keys leave them to it — a
// string and its twin with trailing NULs (up to eight bytes) share a key.
func (d dict) prefixKey(id uint32) uint64 {
	s := &d.slots[id]
	n := s.word & lenMask
	if n > slotInline {
		off := binary.LittleEndian.Uint64(s.bytes[:8])
		return binary.BigEndian.Uint64(d.arena[off : off+8])
	}
	key := binary.BigEndian.Uint64(s.bytes[:8])
	if n < 8 {
		key &^= ^uint64(0) >> (8 * n) // the slot bytes past the string
	}
	return key
}

// size returns the byte length of string id.
func (d dict) size(id uint32) int { return int(d.slots[id].word & lenMask) }

// render sets each cell out[i] to string ids[i], copying the bytes of all of
// them into one string and slicing it: one allocation however many ids.
func (d dict) render(out Tuple, ids []uint32) {
	size := 0
	for _, id := range ids {
		size += d.size(id)
	}
	var buf strings.Builder
	buf.Grow(size)
	for _, id := range ids {
		buf.Write(d.bytes(id))
	}
	s := buf.String()
	for i, id := range ids {
		n := d.size(id)
		out[i], s = s[:n], s[n:]
	}
}

// interner maps constant strings to dense uint32 ids and back. Ids are
// assigned in first-intern order and never change or disappear, so any id
// held by a published snapshot remains valid forever: resolution is
// monotonic, which is what lets compiled plans cache their constant
// resolutions (see planConst).
//
// Concurrency: intern is called only by the database writer (under
// Database.mu), lookup by lock-free readers resolving plan constants. The
// RWMutex protects the id table, the slots and the arena between the two;
// readers never touch the interner otherwise — they render answers through
// the immutable prefix captured in their snapshot (snapshot).
type interner struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	tab   []uint32 // id + 1, 0 = empty; a power of two at most 3/4 full
	slots []strSlot
	arena []byte
}

func newInterner() *interner {
	return &interner{seed: maphash.MakeSeed(), tab: make([]uint32, 64)}
}

// find returns the position of s in the id table: the entry holding its id,
// or the empty entry where it would go.
func (in *interner) find(s string) uint64 {
	d := dict{in.slots, in.arena}
	mask := uint64(len(in.tab) - 1)
	for i := maphash.String(in.seed, s) & mask; ; i = (i + 1) & mask {
		if e := in.tab[i]; e == 0 || string(d.bytes(e-1)) == s {
			return i
		}
	}
}

// intern returns the id of s, assigning the next dense id on first sight.
// Callers hold the database write lock, so the lock-free hit probe cannot
// race another writer; the brief write lock fences concurrent lookup.
func (in *interner) intern(s string) uint32 {
	i := in.find(s)
	if e := in.tab[i]; e != 0 {
		return e - 1
	}
	if len(s) > lenMask {
		panic("engine: cannot intern a constant of 2 GiB or more")
	}
	sl := strSlot{word: uint32(len(s))}
	if isPlain(s) {
		sl.word |= plainBit
	}
	in.mu.Lock()
	if len(s) <= slotInline {
		copy(sl.bytes[:], s)
	} else {
		binary.LittleEndian.PutUint64(sl.bytes[:8], uint64(len(in.arena)))
		in.arena = append(in.arena, s...)
	}
	id := uint32(len(in.slots))
	in.slots = append(in.slots, sl)
	if len(in.slots)*4 > len(in.tab)*3 {
		in.grow()
	} else {
		in.tab[i] = id + 1
	}
	in.mu.Unlock()
	return id
}

// grow doubles the id table and places every id again. Callers hold mu.
func (in *interner) grow() {
	d := dict{in.slots, in.arena}
	in.tab = make([]uint32, 2*len(in.tab))
	mask := uint64(len(in.tab) - 1)
	for id := range d.slots {
		i := maphash.Bytes(in.seed, d.bytes(uint32(id))) & mask
		for in.tab[i] != 0 {
			i = (i + 1) & mask
		}
		in.tab[i] = uint32(id) + 1
	}
}

// lookup resolves a string to its id without assigning one. It is the only
// synchronization a reader ever takes, and only until the enclosing plan
// memoizes the resolution.
func (in *interner) lookup(s string) (uint32, bool) {
	in.mu.RLock()
	e := in.tab[in.find(s)]
	in.mu.RUnlock()
	return e - 1, e != 0
}

// snapshot captures the current dictionary as an immutable prefix (full
// slice expressions, so a later append can never write into the captured
// window). Callers hold the database write lock.
func (in *interner) snapshot() dict {
	return dict{in.slots[:len(in.slots):len(in.slots)], in.arena[:len(in.arena):len(in.arena)]}
}
