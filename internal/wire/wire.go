// Package wire holds the primitives of the hand-written JSON codecs — the
// service boundary's submit request decoder, submit response encoder,
// client response and explain decoders and decision RPC codec, and the
// log's record codec (internal/wal): the string, string-array and refusal
// encoders, the scanner the decoders walk a body with and its refusal
// reader, the body reader, the buffer pool and the JSON reply writer.
//
// The encoders append exactly the bytes encoding/json writes for the same
// value: field order, omitempty rules, HTML escaping of <, > and &,
// U+2028/U+2029 and invalid-UTF-8 handling. A string of bytes that stand
// for themselves is copied between quotes; one holding a byte encoding/json
// rewrites is handed to encoding/json, so its escaping rules are the only
// ones there are.
//
// A decoder scans the few plain shapes its encoder emits — unescaped UTF-8
// too, but for the request decoder — and hands everything else — escapes,
// other key orders or spellings, unknown or duplicate keys, null where the
// encoder writes none, trailing data, malformed input — to encoding/json
// on the same bytes, whose accept/reject behaviour, error texts and values
// are then the only ones there are: the scanner never rejects, it only
// declines. The refusal encoder has one reader, Scanner.Explanation. Each
// codec has a fuzz target holding it equal to encoding/json on every input.
package wire

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/policy"
)

// AppendString appends s as a JSON string. A string of bytes that stand for
// themselves — plain ASCII (engine.PlainByte), and well-formed multi-byte
// UTF-8 other than the two line separators, which is what a rendered label's
// ⊗ and ⊤ are — is copied between quotes; a string holding anything else is
// encoded by encoding/json. s is a string, or the dictionary's bytes of an
// answer cell not marked plain.
func AppendString[S string | []byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); {
		if engine.PlainByte(s[i]) {
			i++
			continue
		}
		var rb [utf8.UTFMax]byte
		r, size := utf8.DecodeRune(rb[:copy(rb[:], s[i:])])
		if r < utf8.RuneSelf || (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			quoted, _ := json.Marshal(string(s)) // marshaling a string cannot fail
			return append(dst, quoted...)
		}
		i += size
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendStrings appends a JSON array of strings; a nil slice is null, as
// encoding/json renders it.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, `null`...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendExplanation appends a refusal's structured account, every field
// always present (the Explanation type has no omitempty).
func AppendExplanation(dst []byte, e *policy.Explanation) []byte {
	dst = append(dst, `{"query":`...)
	dst = AppendString(dst, e.Query)
	dst = append(dst, `,"label":`...)
	dst = AppendString(dst, e.Label)
	dst = append(dst, `,"admissible":`...)
	dst = strconv.AppendBool(dst, e.Admissible)
	dst = append(dst, `,"cumulative":`...)
	dst = AppendString(dst, e.Cumulative)
	dst = append(dst, `,"partitions":`...)
	if e.Partitions == nil {
		return append(dst, `null}`...)
	}
	dst = append(dst, '[')
	for i := range e.Partitions {
		p := &e.Partitions[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = AppendString(dst, p.Name)
		dst = append(dst, `,"views":`...)
		dst = AppendStrings(dst, p.Views)
		dst = append(dst, `,"live":`...)
		dst = strconv.AppendBool(dst, p.Live)
		dst = append(dst, `,"dominates":`...)
		dst = strconv.AppendBool(dst, p.Dominates)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// Explanation reads into e the object AppendExplanation writes — keys in
// its order and spelling, no whitespace, null only for a nil partition or
// view list, every string one Unescaped reads — and moves the position
// past it. Its views are cut from Cells, its partitions are one
// allocation. On any other input it leaves e, the position and Cells as
// they were, and the caller hands the object to encoding/json.
func (sc *Scanner[S]) Explanation(e *policy.Explanation) bool {
	pos, cells := sc.Pos, len(sc.Cells)
	if x, ok := sc.explanation(); ok {
		*e = x
		return true
	}
	sc.Pos, sc.Cells = pos, sc.Cells[:cells]
	return false
}

// explanation is Explanation's scan, which may stop anywhere. A policy's
// few partitions are read onto the stack and copied out once.
func (sc *Scanner[S]) explanation() (e policy.Explanation, ok bool) {
	if !sc.Lit(`{"query":`) || !sc.text(&e.Query) || !sc.Lit(`,"label":`) || !sc.text(&e.Label) ||
		!sc.flag(`,"admissible":`, &e.Admissible) || !sc.Lit(`,"cumulative":`) || !sc.text(&e.Cumulative) ||
		!sc.Lit(`,"partitions":`) {
		return e, false
	}
	if sc.Lit("null}") {
		return e, true
	}
	if !sc.Lit("[") {
		return e, false
	}
	var buf [8]policy.PartitionStatus
	parts := buf[:0]
	for more := !sc.Lit("]"); more; {
		var p policy.PartitionStatus
		if !sc.Lit(`{"name":`) || !sc.text(&p.Name) || !sc.Lit(`,"views":`) {
			return e, false
		}
		if p.Views, ok = sc.Strings(); !ok || !sc.flag(`,"live":`, &p.Live) || !sc.flag(`,"dominates":`, &p.Dominates) || !sc.Lit("}") {
			return e, false
		}
		parts = append(parts, p)
		if more, ok = sc.More(); !ok {
			return e, false
		}
	}
	e.Partitions = append(make([]policy.PartitionStatus, 0, len(parts)), parts...)
	return e, sc.Lit("}")
}

// text reads a string Unescaped reads into dst.
func (sc *Scanner[S]) text(dst *string) bool {
	s, ok := sc.Unescaped()
	*dst = string(s)
	return ok
}

// flag reads key and a boolean into dst.
func (sc *Scanner[S]) flag(key string, dst *bool) bool {
	if !sc.Lit(key) {
		return false
	}
	*dst = sc.Lit("true")
	return *dst || sc.Lit("false")
}
