package server

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
)

// This file is the one decoder of POST /v1/submit requests: to
// SubmitRequest what encode.go is to SubmitResponse. A submission's body is
// a few hundred bytes of one fixed shape, and reflecting over it cost the
// daemon more than labeling, deciding and evaluating the query it carries;
// decodeSubmitRequest instead scans the two plain shapes
//
//	{"query":"…"}    {"queries":["…",…]}
//
// — insignificant whitespace anywhere JSON allows it, strings of jsonPlain
// bytes — and hands everything else (escapes, non-ASCII, other spellings of
// the keys, duplicate or unknown fields, null, trailing data, malformed
// input) to encoding/json on the same bytes, whose accept/reject behaviour
// and error texts are then the only ones there are: the scanner never
// rejects, it only declines. FuzzSubmitRequestDecode holds the two equal on
// every input.

// submitBody is a decoded SubmitRequest whose query texts are still bytes:
// views into the request body on the plain shapes, so a text the query memo
// already knows is never copied. They are valid until the body's buffer is
// reused.
type submitBody struct {
	query   []byte
	queries [][]byte
}

// decodeSubmitRequest decodes a whole request body as json.Decoder (with
// DisallowUnknownFields) decodes its first value into a SubmitRequest.
func decodeSubmitRequest(body []byte) (submitBody, error) {
	if req, ok := scanSubmitRequest(body); ok {
		return req, nil
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return submitBody{}, err
	}
	out := submitBody{query: []byte(req.Query)}
	if req.Queries != nil {
		out.queries = make([][]byte, len(req.Queries))
		for i, q := range req.Queries {
			out.queries[i] = []byte(q)
		}
	}
	return out, nil
}

// scanSubmitRequest recognizes the two plain shapes; ok is false for any
// other input, valid or not.
func scanSubmitRequest(body []byte) (req submitBody, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return req, false
	}
	key, i, ok := scanPlainString(body, skipSpace(body, i+1))
	if !ok {
		return req, false
	}
	if i = skipSpace(body, i); i == len(body) || body[i] != ':' {
		return req, false
	}
	i = skipSpace(body, i+1)
	switch {
	case string(key) == "query":
		if req.query, i, ok = scanPlainString(body, i); !ok {
			return req, false
		}
	case string(key) == "queries":
		if i == len(body) || body[i] != '[' {
			return req, false
		}
		for i++; ; i++ {
			var q []byte
			if q, i, ok = scanPlainString(body, skipSpace(body, i)); !ok {
				return req, false // an empty array included: encoding/json's value, not nil
			}
			req.queries = append(req.queries, q)
			if i = skipSpace(body, i); i == len(body) || (body[i] != ',' && body[i] != ']') {
				return req, false
			}
			if body[i] == ']' {
				i++
				break
			}
		}
	default:
		return req, false
	}
	if i = skipSpace(body, i); i == len(body) || body[i] != '}' {
		return req, false
	}
	return req, skipSpace(body, i+1) == len(body)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanPlainString reads a JSON string of jsonPlain bytes — one that stands
// for itself — starting at b[i], and returns its contents and the index
// after its closing quote.
func scanPlainString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	for i = start; i < len(b) && jsonPlain[b[i]]; i++ {
	}
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	return b[start:i], i + 1, true
}

// readBody appends a request's or a response's body to buf, growing it as
// needed. The serving layer has bounded a request's (http.MaxBytesReader):
// reading past the bound fails with *http.MaxBytesError.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		buf = slices.Grow(buf, 512)
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
