package server

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	disclosure "repro"
)

// This file is the one encoder of POST /v1/submit responses. An admitted
// answer is hundreds of short strings, and reflecting over them cost the
// daemon more than the join that produced them; appendSubmitResponse
// instead appends the body to a byte slice, field by field, straight from
// the batch results — an answer arrives as interned ids (engine.Answer) and
// each cell's string is read out of the snapshot's dictionary into the
// buffer, so no tuple and no SubmitResponse is ever built — and produces
// exactly the bytes encoding/json's Encoder produces for the SubmitResponse
// the results stand for — same field order and omitempty rules,
// same HTML escaping of <, > and &, same U+2028/U+2029 and invalid-UTF-8
// handling, same trailing newline. Two thirds of the expected regime's
// answers are refusals, so the refusal explanation is appended the same way
// (appendExplanation); the one thing still handed to encoding/json is a
// string holding a byte its escaping rules rewrite, so those rules exist
// once. FuzzSubmitResponseJSON holds the two encoders byte-for-byte equal.
//
// It is deliberately not SubmitResponse.MarshalJSON: json.Marshal
// re-validates and re-escapes whatever a Marshaler returns with its
// byte-at-a-time scanner, which for a 24 KB answer costs three times what
// producing the bytes did. Go callers that marshal the wire type therefore
// still take encoding/json's reflective path, to the same bytes.

// appendSubmitResponse appends the body of the response to a submission of
// ps that SubmitPrepared answered with results: the SubmitResponse holding
// one SubmitResult per query, newline-terminated.
func appendSubmitResponse(dst []byte, principal string, ps []*disclosure.Prepared, results []disclosure.BatchResult) []byte {
	dst = append(dst, `{"principal":`...)
	dst = appendString(dst, principal)
	dst = append(dst, `,"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSubmitResult(dst, ps[i].Name, &results[i])
	}
	return append(dst, "]}\n"...)
}

// appendSubmitResult appends one SubmitResult: rows only for an admitted
// query that evaluated, the error text in their place otherwise.
func appendSubmitResult(dst []byte, query string, res *disclosure.BatchResult) []byte {
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
	} else if ans := &res.Answer; dec.Allowed && ans.Len() > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, w := 0, ans.Width(); i < ans.Len(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j := 0; j < w; j++ {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendString(dst, ans.Cell(i, j))
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if dec.Refusal != nil {
		dst = append(dst, `,"refusal":`...)
		dst = appendExplanation(dst, dec.Refusal)
	}
	return append(dst, '}')
}

// appendExplanation appends a refusal's structured account, every field
// always present (the Explanation type has no omitempty).
func appendExplanation(dst []byte, e *disclosure.Explanation) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, e.Query)
	dst = append(dst, `,"label":`...)
	dst = appendString(dst, e.Label)
	dst = append(dst, `,"admissible":`...)
	dst = strconv.AppendBool(dst, e.Admissible)
	dst = append(dst, `,"cumulative":`...)
	dst = appendString(dst, e.Cumulative)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendInt(dst, int64(e.Accepted), 10)
	dst = append(dst, `,"refused":`...)
	dst = strconv.AppendInt(dst, int64(e.Refused), 10)
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
		dst = appendString(dst, p.Name)
		dst = append(dst, `,"views":`...)
		dst = appendStrings(dst, p.Views)
		dst = append(dst, `,"live":`...)
		dst = strconv.AppendBool(dst, p.Live)
		dst = append(dst, `,"dominates":`...)
		dst = strconv.AppendBool(dst, p.Dominates)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
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

// appendString appends s as a JSON string. A string of bytes that stand for
// themselves — plain ASCII, and well-formed multi-byte UTF-8 other than the
// two line separators, which is what a rendered label's ⊗ and ⊤ are — is
// copied between quotes; a string holding anything else is encoded by
// encoding/json, whose escaping rules are then the only ones there are.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if jsonPlain[s[i]] {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r < utf8.RuneSelf || (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			quoted, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(dst, quoted...)
		}
		i += size
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// respBufRetainLimit bounds the capacity of a submit buffer that goes back
// to the pool: a 24 KB answer reuses its buffer, a multi-megabyte batch does
// not pin its peak (the serving layer's arenaRetainLimit).
const respBufRetainLimit = 1 << 20

// respBufs pools the buffers of submit requests: each holds the request's
// body and then its response (handleSubmit). The pointer indirection keeps
// Put from allocating a slice header.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// putRespBuf returns a buffer to the pool unless a large response grew it
// past the retain limit.
func putRespBuf(b *[]byte) {
	if cap(*b) <= respBufRetainLimit {
		respBufs.Put(b)
	}
}
