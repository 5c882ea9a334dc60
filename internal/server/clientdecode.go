package server

import (
	"encoding/json"
	"strings"

	disclosure "repro"
	"repro/internal/wire"
)

// This file is the Client's decoder of POST /v1/submit responses: to
// appendSubmitResponse what decode.go's scanner is to a request. It walks
// the one shape the encoder emits —
//
//	{"principal":"…","results":[{"query":"…","allowed":true,"live":[…],"error":"…","rows":[[…],…],"refusal":{…}},…]}
//
// keys in that order and spelling, optional ones present or not, whitespace
// only after the last brace — and slices it: a string with no escape is a
// substring of the body, every string array (a live list, a row) a
// full-capacity sub-slice of one backing []string, every result's rows a
// sub-slice of one backing [][]string. A refusal is scanned by
// wire.Scanner.Explanation, the reader of the object AppendExplanation
// writes. A string with an escape, and a refusal the reader declines, go
// to encoding/json as that one value; anything that is not the shape
// declines the whole body to encoding/json (package wire).
// FuzzSubmitResponseDecode holds the two equal on every input.

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

// respScanner is the state of one scan: the body, the read position, the
// cell backing and the backing array the results' rows are cut from.
type respScanner struct {
	wire.Scanner[string]
	rows [][]string
}

// scanSubmitResponse recognizes the encoder's shape; ok is false for any
// other input, valid or not.
func scanSubmitResponse(body string, queries int) (resp SubmitResponse, ok bool) {
	sc := respScanner{Scanner: wire.Scanner[string]{Body: body}}
	if !sc.Lit(`{"principal":`) {
		return resp, false
	}
	if resp.Principal, ok = sc.str(); !ok || !sc.Lit(`,"results":[`) {
		return resp, false
	}
	resp.Results = make([]SubmitResult, 0, queries)
	for more := !sc.Lit("]"); more; {
		resp.Results = append(resp.Results, SubmitResult{})
		if !sc.result(&resp.Results[len(resp.Results)-1]) {
			return resp, false
		}
		if more, ok = sc.More(); !ok {
			return resp, false
		}
	}
	return resp, sc.End()
}

// result scans one SubmitResult into r.
func (sc *respScanner) result(r *SubmitResult) bool {
	var ok bool
	if !sc.Lit(`{"query":`) {
		return false
	}
	if r.Query, ok = sc.str(); !ok {
		return false
	}
	if r.Allowed = sc.Lit(`,"allowed":true`); !r.Allowed && !sc.Lit(`,"allowed":false`) {
		return false
	}
	if sc.Lit(`,"live":`) {
		if r.Live, ok = sc.strs(); !ok {
			return false
		}
	}
	if sc.Lit(`,"error":`) {
		if r.Error, ok = sc.str(); !ok {
			return false
		}
	}
	if sc.Lit(`,"rows":[`) {
		if sc.rows == nil {
			rest := sc.Body[sc.Pos:]
			sc.rows = make([][]string, 0, min(strings.Count(rest, "["), strings.Count(rest, `"`)/2))
		}
		first := len(sc.rows)
		for more := !sc.Lit("]"); more; {
			row, ok := sc.strs()
			if !ok {
				return false
			}
			sc.rows = append(sc.rows, row)
			if more, ok = sc.More(); !ok {
				return false
			}
		}
		r.Rows = sc.rows[first:len(sc.rows):len(sc.rows)]
	}
	if sc.Lit(`,"refusal":`) {
		r.Refusal = new(disclosure.Explanation)
		if !sc.Explanation(r.Refusal) {
			obj, ok := sc.Object()
			if !ok || json.Unmarshal([]byte(obj), r.Refusal) != nil {
				return false
			}
		}
	}
	return sc.Lit("}")
}

// alloc makes the cell backing before the response's first string array
// is cut; result makes the rows backing at the first rows list, so a
// refusal, whose live list is its only array, makes none. Each is sized
// from what is left of the body by single-byte counts: every string costs
// two quotes, every row an opening bracket and all but a boolean answer's
// a cell. Both are a little high on the encoder's bodies (keys are
// strings, live lists have brackets); the slices are appended to, so a
// body they are low for costs a reallocation, not an error.
func (sc *respScanner) alloc() {
	if sc.Cells == nil {
		sc.Cells = make([]string, 0, strings.Count(sc.Body[sc.Pos:], `"`)/2)
	}
}

// strs scans an array of strings — a live list, a row — into the cell
// backing and returns its full-capacity sub-slice (non-nil when empty, as
// encoding/json decodes []).
func (sc *respScanner) strs() ([]string, bool) {
	if !sc.Lit("[") {
		return nil, false
	}
	sc.alloc()
	first := len(sc.Cells)
	for more := !sc.Lit("]"); more; {
		v, ok := sc.str()
		if !ok {
			return nil, false
		}
		sc.Cells = append(sc.Cells, v)
		if more, ok = sc.More(); !ok {
			return nil, false
		}
	}
	return sc.Cells[first:len(sc.Cells):len(sc.Cells)], true
}

// str scans a string: a substring of the body when it has no escape,
// encoding/json's reading of the token when it has one.
func (sc *respScanner) str() (string, bool) {
	if v, ok := sc.Unescaped(); ok {
		return v, true
	}
	s, start := sc.Body, sc.Pos
	if start == len(s) || s[start] != '"' {
		return "", false
	}
	for i := start + 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			var v string
			sc.Pos = i + 1
			err := json.Unmarshal([]byte(s[start:sc.Pos]), &v)
			return v, err == nil
		}
	}
	return "", false
}

// decodeExplanation decodes a GET /v1/explain body as json.Decoder decodes
// its first value — which ends at its closing brace — into an Explanation.
func decodeExplanation(body string) (disclosure.Explanation, error) {
	var e disclosure.Explanation
	if sc := (wire.Scanner[string]{Body: body}); sc.Explanation(&e) {
		return e, nil
	}
	var ref disclosure.Explanation
	err := json.NewDecoder(strings.NewReader(body)).Decode(&ref)
	return ref, err
}
