package server

import (
	"bytes"
	"encoding/json"

	"repro/internal/wire"
)

// This file is the one decoder of POST /v1/submit requests: to
// SubmitRequest what encode.go is to SubmitResponse. It scans the two plain
// shapes
//
//	{"query":"…"}    {"queries":["…",…]}
//
// with insignificant whitespace anywhere JSON allows it, and declines
// everything else to encoding/json on the same bytes (package wire).
// FuzzSubmitRequestDecode holds the two equal on every input.

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
	sc := wire.Scanner[[]byte]{Body: body}
	sc.Space()
	if !sc.Lit("{") {
		return req, false
	}
	sc.Space()
	key, ok := sc.Str()
	if !ok {
		return req, false
	}
	sc.Space()
	if !sc.Lit(":") {
		return req, false
	}
	sc.Space()
	switch string(key) {
	case "query":
		if req.query, ok = sc.Str(); !ok {
			return req, false
		}
	case "queries":
		if !sc.Lit("[") {
			return req, false
		}
		for more := true; more; {
			sc.Space()
			q, ok := sc.Str()
			if !ok {
				return req, false // an empty array included: encoding/json's value, not nil
			}
			req.queries = append(req.queries, q)
			sc.Space()
			if more, ok = sc.More(); !ok {
				return req, false
			}
		}
	default:
		return req, false
	}
	sc.Space()
	return req, sc.End()
}
