package wire

import (
	"strings"
	"unicode/utf8"

	"repro/internal/engine"
)

// Scanner is the read position of one scan over a body: a string, or the
// bytes of a pooled buffer. Lit, Str, Unescaped, Strings, More, Object and
// Explanation move the position only past what they find.
type Scanner[S string | []byte] struct {
	// Body is the text scanned.
	Body S
	// Pos is the index of the next byte to read.
	Pos int
	// Cells backs the string arrays a scan reads. Unless the caller sized
	// it, Strings does at the first array: two of the rest's quotes to a
	// string (keys make the count a little high).
	Cells []string
}

// Lit consumes x if the body continues with it. Comparing a len(x)-byte
// prefix of the rest, rather than a slice ending at Pos+len(x), lets the
// compiler compare a literal x of 1, 2, 4 or 8 bytes in one load instead of
// a call.
func (sc *Scanner[S]) Lit(x string) bool {
	rest := sc.Body[sc.Pos:]
	if len(rest) < len(x) || string(rest[:len(x)]) != x {
		return false
	}
	sc.Pos += len(x)
	return true
}

// Space steps over JSON whitespace.
func (sc *Scanner[S]) Space() {
	for sc.Pos < len(sc.Body) {
		switch sc.Body[sc.Pos] {
		case ' ', '\t', '\r', '\n':
			sc.Pos++
		default:
			return
		}
	}
}

// Str reads a JSON string of plain bytes (engine.PlainByte) — one that
// stands for itself — and returns its contents, a view into the body.
func (sc *Scanner[S]) Str() (s S, ok bool) {
	b, i := sc.Body, sc.Pos
	if i == len(b) || b[i] != '"' {
		return s, false
	}
	for i++; i < len(b) && engine.PlainByte(b[i]); i++ {
	}
	if i == len(b) || b[i] != '"' {
		return s, false
	}
	s, sc.Pos = b[sc.Pos+1:i], i+1
	return s, true
}

// Unescaped reads a JSON string with no escape and no control byte whose
// other bytes are well-formed UTF-8 — which encoding/json decodes to its
// own bytes — and returns its contents, a view into the body. A string of
// plain bytes is Str's; any other is read again from its opening quote.
func (sc *Scanner[S]) Unescaped() (s S, ok bool) {
	if s, ok = sc.Str(); ok {
		return s, true
	}
	b, i := sc.Body, sc.Pos
	if i == len(b) || b[i] != '"' {
		return s, false
	}
	for i++; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			s, sc.Pos = b[sc.Pos+1:i], i+1
			return s, true
		case c < ' ' || c == '\\':
			return s, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(string(b[i:min(i+utf8.UTFMax, len(b))]))
			if r == utf8.RuneError && size == 1 {
				return s, false
			}
			i += size
		}
	}
	return s, false
}

// Strings reads an array of strings Unescaped reads, or null, into Cells
// and returns its full-capacity sub-slice: nil for null and non-nil when
// empty, as encoding/json decodes them. The strings are views into the
// body when it is a string, copies when it is bytes.
func (sc *Scanner[S]) Strings() ([]string, bool) {
	if sc.Lit("null") {
		return nil, true
	}
	if !sc.Lit("[") {
		return nil, false
	}
	if sc.Cells == nil {
		sc.Cells = make([]string, 0, strings.Count(string(sc.Body[sc.Pos:]), `"`)/2)
	}
	first := len(sc.Cells)
	for more := !sc.Lit("]"); more; {
		s, ok := sc.Unescaped()
		if !ok {
			return nil, false
		}
		sc.Cells = append(sc.Cells, string(s))
		if more, ok = sc.More(); !ok {
			return nil, false
		}
	}
	return sc.Cells[first:len(sc.Cells):len(sc.Cells)], true
}

// More steps over what follows an array's element: it reports true after a
// comma and false after the closing bracket; ok is false on anything else.
func (sc *Scanner[S]) More() (more, ok bool) {
	if sc.Pos == len(sc.Body) {
		return false, false
	}
	c := sc.Body[sc.Pos]
	if c != ',' && c != ']' {
		return false, false
	}
	sc.Pos++
	return c == ',', true
}

// End reports whether the body continues with the closing brace and then
// JSON whitespace only.
func (sc *Scanner[S]) End() bool {
	if !sc.Lit("}") {
		return false
	}
	sc.Space()
	return sc.Pos == len(sc.Body)
}

// Object delimits the JSON object the body continues with by matching its
// braces outside strings. It does not validate: a caller hands the span to
// encoding/json, and a span that unmarshals is the span a parser of the
// whole body would have read.
func (sc *Scanner[S]) Object() (S, bool) {
	var none S
	b, start := sc.Body, sc.Pos
	if start == len(b) || b[start] != '{' {
		return none, false
	}
	for depth, i := 0, start; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				sc.Pos = i + 1
				return b[start:sc.Pos], true
			}
		}
	}
	return none, false
}
