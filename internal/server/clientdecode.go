package server

import (
	"encoding/json"
	"strings"

	disclosure "repro"
)

// This file is the Client's decoder of POST /v1/submit responses: to
// appendSubmitResponse what decode.go's scanner is to a request. Reflecting
// over an admitted answer's hundreds of rows cost a client more than the
// daemon spent producing them; scanSubmitResponse instead walks the one
// shape the encoder emits —
//
//	{"principal":"…","results":[{"query":"…","allowed":true,"live":[…],"error":"…","rows":[[…],…],"refusal":{…}},…]}
//
// keys in that order and spelling, optional ones present or not, whitespace
// only after the last brace — and slices it: a string of jsonPlain bytes is
// a substring of the body, every string array (a live list, a row) a
// full-capacity sub-slice of one backing []string, every result's rows a
// sub-slice of one backing [][]string. A string with an escape or a byte
// that is not plain ASCII, and a refusal object, go to encoding/json as that
// one value; anything that is not the shape (other orders or spellings,
// unknown or duplicate keys, null, malformed input) declines the whole body
// to encoding/json, whose accept/reject behaviour and values are then the
// only ones there are: the scanner never rejects. FuzzSubmitResponseDecode
// holds the two equal on every input.

// decodeSubmitResponse decodes a whole response body as json.Decoder
// decodes its first value into a SubmitResponse. queries is how many
// results the request asked for, a capacity and nothing more.
func decodeSubmitResponse(body string, queries int) (SubmitResponse, error) {
	if resp, ok := scanSubmitResponse(body, queries); ok {
		return resp, nil
	}
	var resp SubmitResponse
	err := json.NewDecoder(strings.NewReader(body)).Decode(&resp)
	return resp, err
}

// respScanner is the state of one scan: the body, the read position, and
// the two backing arrays the response's slices are cut from.
type respScanner struct {
	s     string
	i     int
	cells []string
	rows  [][]string
}

// scanSubmitResponse recognizes the encoder's shape; ok is false for any
// other input, valid or not.
func scanSubmitResponse(body string, queries int) (resp SubmitResponse, ok bool) {
	sc := respScanner{s: body}
	if !sc.lit(`{"principal":`) {
		return resp, false
	}
	if resp.Principal, ok = sc.str(); !ok || !sc.lit(`,"results":[`) {
		return resp, false
	}
	resp.Results = make([]SubmitResult, 0, queries)
	for more := !sc.lit("]"); more; {
		resp.Results = append(resp.Results, SubmitResult{})
		if !sc.result(&resp.Results[len(resp.Results)-1]) {
			return resp, false
		}
		if more, ok = sc.more(); !ok {
			return resp, false
		}
	}
	if !sc.lit("}") {
		return resp, false
	}
	return resp, strings.Trim(body[sc.i:], " \t\r\n") == ""
}

// result scans one SubmitResult into r.
func (sc *respScanner) result(r *SubmitResult) bool {
	var ok bool
	if !sc.lit(`{"query":`) {
		return false
	}
	if r.Query, ok = sc.str(); !ok {
		return false
	}
	if r.Allowed = sc.lit(`,"allowed":true`); !r.Allowed && !sc.lit(`,"allowed":false`) {
		return false
	}
	if sc.lit(`,"live":`) {
		if r.Live, ok = sc.strs(); !ok {
			return false
		}
	}
	if sc.lit(`,"error":`) {
		if r.Error, ok = sc.str(); !ok {
			return false
		}
	}
	if sc.lit(`,"rows":[`) {
		sc.alloc()
		first := len(sc.rows)
		for more := !sc.lit("]"); more; {
			row, ok := sc.strs()
			if !ok {
				return false
			}
			sc.rows = append(sc.rows, row)
			if more, ok = sc.more(); !ok {
				return false
			}
		}
		r.Rows = sc.rows[first:len(sc.rows):len(sc.rows)]
	}
	if sc.lit(`,"refusal":`) {
		obj, ok := sc.object()
		if !ok {
			return false
		}
		r.Refusal = new(disclosure.Explanation)
		if json.Unmarshal([]byte(obj), r.Refusal) != nil {
			return false
		}
	}
	return sc.lit("}")
}

// lit consumes x if the body continues with it.
func (sc *respScanner) lit(x string) bool {
	if !strings.HasPrefix(sc.s[sc.i:], x) {
		return false
	}
	sc.i += len(x)
	return true
}

// more steps over what follows an array's element: it reports true after a
// comma and false after the closing bracket; ok is false on anything else.
func (sc *respScanner) more() (more, ok bool) {
	if sc.i == len(sc.s) {
		return false, false
	}
	c := sc.s[sc.i]
	sc.i++
	return c == ',', c == ',' || c == ']'
}

// alloc makes the two backing arrays before the response's first array is
// cut, sized from what is left of the body by two single-byte counts: every
// string costs two quotes, every row an opening bracket and all but a
// boolean answer's a cell. Both are a little high on the encoder's bodies
// (keys are strings, live lists have brackets); the slices are appended to,
// so a body they are low for costs a reallocation, not an error.
func (sc *respScanner) alloc() {
	if sc.cells == nil {
		rest := sc.s[sc.i:]
		sc.cells = make([]string, 0, strings.Count(rest, `"`)/2)
		sc.rows = make([][]string, 0, min(strings.Count(rest, "["), cap(sc.cells)))
	}
}

// strs scans an array of strings — a live list, a row — into the cell
// backing and returns its full-capacity sub-slice (non-nil when empty, as
// encoding/json decodes []).
func (sc *respScanner) strs() ([]string, bool) {
	if !sc.lit("[") {
		return nil, false
	}
	sc.alloc()
	first := len(sc.cells)
	for more := !sc.lit("]"); more; {
		v, ok := sc.str()
		if !ok {
			return nil, false
		}
		sc.cells = append(sc.cells, v)
		if more, ok = sc.more(); !ok {
			return nil, false
		}
	}
	return sc.cells[first:len(sc.cells):len(sc.cells)], true
}

// str scans a string: a substring of the body when every byte stands for
// itself, encoding/json's reading of the token when one does not.
func (sc *respScanner) str() (string, bool) {
	s, i := sc.s, sc.i
	if i == len(s) || s[i] != '"' {
		return "", false
	}
	start := i + 1
	for i = start; i < len(s) && jsonPlain[s[i]]; i++ {
	}
	if i < len(s) && s[i] == '"' {
		sc.i = i + 1
		return s[start:i], true
	}
	for ; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			var v string
			sc.i = i + 1
			err := json.Unmarshal([]byte(s[start-1:sc.i]), &v)
			return v, err == nil
		}
	}
	return "", false
}

// object delimits the JSON object the body continues with by matching its
// braces outside strings. It does not validate: its one caller unmarshals
// the result, and a span that unmarshals is the span a parser of the whole
// body would have read.
func (sc *respScanner) object() (string, bool) {
	s, start := sc.s, sc.i
	if start == len(s) || s[start] != '{' {
		return "", false
	}
	for depth, i := 0, start; i < len(s); i++ {
		switch s[i] {
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				sc.i = i + 1
				return s[start:sc.i], true
			}
		}
	}
	return "", false
}
