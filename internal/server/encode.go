package server

import (
	"encoding/json"
	"strings"
	"sync"

	disclosure "repro"
)

// This file is the one encoder of POST /v1/submit responses. An admitted
// answer is hundreds of short strings, and reflecting over them cost the
// daemon more than the join that produced them; appendSubmitResponse
// instead appends the body to a byte slice, field by field, straight from
// the batch results — the engine's tuples are never copied into a
// SubmitResponse — and produces exactly the bytes encoding/json's Encoder
// produces for that SubmitResponse — same field order and omitempty rules,
// same HTML escaping of <, > and &, same U+2028/U+2029 and invalid-UTF-8
// handling, same trailing newline — because any string that is not plain
// printable ASCII, and the refusal explanation, still go through
// encoding/json itself. FuzzSubmitResponseJSON holds the two byte-for-byte
// equal.
//
// It is deliberately not SubmitResponse.MarshalJSON: json.Marshal
// re-validates and re-escapes whatever a Marshaler returns with its
// byte-at-a-time scanner, which for a 24 KB answer costs three times what
// producing the bytes did. Go callers that marshal the wire type therefore
// still take encoding/json's reflective path, to the same bytes.

// appendSubmitResponse appends the body of the response to a submission of
// qs that SubmitBatch answered with results: the SubmitResponse holding one
// SubmitResult per query, newline-terminated.
func appendSubmitResponse(dst []byte, principal string, qs []*disclosure.Query, results []disclosure.BatchResult) ([]byte, error) {
	dst = append(dst, `{"principal":`...)
	dst = appendString(dst, principal)
	dst = append(dst, `,"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendSubmitResult(dst, qs[i].Name, &results[i]); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendSubmitResult appends one SubmitResult: rows only for an admitted
// query that evaluated, the error text in their place otherwise.
func appendSubmitResult(dst []byte, query string, res *disclosure.BatchResult) ([]byte, error) {
	dec := &res.Decision
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, query)
	if dec.Allowed {
		dst = append(dst, `,"allowed":true`...)
	} else {
		dst = append(dst, `,"allowed":false`...)
	}
	if len(dec.Live) > 0 {
		dst = append(dst, `,"live":`...)
		dst = appendStrings(dst, dec.Live)
	}
	if res.Err != nil {
		if msg := res.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = appendString(dst, msg)
		}
	} else if dec.Allowed && len(res.Rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range res.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(dst, row)
		}
		dst = append(dst, ']')
	}
	if dec.Refusal != nil {
		refusal, err := json.Marshal(dec.Refusal)
		if err != nil {
			return nil, err
		}
		dst = append(dst, `,"refusal":`...)
		dst = append(dst, refusal...)
	}
	return append(dst, '}'), nil
}

// appendStrings appends a JSON array of strings; a nil slice is null, as
// encoding/json renders it.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, `null`...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// jsonPlain[c] reports whether byte c stands for itself inside a JSON string
// as encoding/json writes one: printable ASCII other than the quote, the
// backslash and the three characters its HTML escaping rewrites.
var jsonPlain = func() (plain [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		plain[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return plain
}()

// appendString appends s as a JSON string. A string of plain bytes is
// copied between quotes; a string holding anything else is encoded by
// encoding/json, whose escaping rules are then the only ones there are.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			quoted, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// respBufRetainLimit bounds the capacity of a response buffer that goes
// back to the pool: a 24 KB answer reuses its buffer, a multi-megabyte batch
// does not pin its peak (the serving layer's arenaRetainLimit).
const respBufRetainLimit = 1 << 20

// respBufs pools submit-response buffers. The pointer indirection keeps
// Put from allocating a slice header.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// putRespBuf returns a buffer to the pool unless a large response grew it
// past the retain limit.
func putRespBuf(b *[]byte) {
	if cap(*b) <= respBufRetainLimit {
		respBufs.Put(b)
	}
}
