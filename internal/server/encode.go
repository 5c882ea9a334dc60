package server

import (
	disclosure "repro"
	"repro/internal/wire"
)

// This file is the one encoder of POST /v1/submit responses. It appends
// the body field by field, straight from the batch results, as package
// wire's encoders do, newline-terminated:
//
//	{"principal":"…","results":[{"query":"…","allowed":true,"live":[…],"error":"…","rows":[[…],…],"refusal":{…}},…]}
//
// An answer arrives as interned ids (engine.Answer) and is written a row at
// a time by the engine's row kernel, Answer.AppendRow, which reads each
// id's dictionary slot once, takes head constants pre-quoted from the plan
// and hands only a cell that is not plain back to wire.AppendString;
// between rows the encoder checks for a flush. So no tuple, no string and
// no SubmitResponse is ever built. FuzzSubmitResponseJSON holds the bytes
// equal to encoding/json's Encoder on the SubmitResponse the results stand
// for.
//
// It is deliberately not SubmitResponse.MarshalJSON: json.Marshal
// re-validates and re-escapes whatever a Marshaler returns with its
// byte-at-a-time scanner, which for a 24 KB answer costs three times what
// producing the bytes did. Go callers that marshal the wire type therefore
// still take encoding/json's reflective path, to the same bytes.

// respChunk is how much of a submit response the handler holds before it
// writes: a larger response leaves the pooled buffer in pieces of about
// this size, after its exact length went out as its Content-Length.
const respChunk = 64 << 10

// appendSubmitResponse appends the body of the response to a submission of
// ps that SubmitPrepared answered with results: the SubmitResponse holding
// one SubmitResult per query, newline-terminated.
func appendSubmitResponse(dst []byte, principal string, ps []*disclosure.Prepared, results []disclosure.BatchResult) []byte {
	return appendSubmitChunks(dst, principal, ps, results, nil)
}

// appendSubmitChunks is appendSubmitResponse with a flush hook: before each
// result and each row, once dst holds respChunk bytes or more, it hands dst
// to flush and goes on appending to what flush returns. Without a hook the
// whole body is appended to dst.
func appendSubmitChunks(dst []byte, principal string, ps []*disclosure.Prepared, results []disclosure.BatchResult, flush func([]byte) []byte) []byte {
	dst = append(dst, `{"principal":`...)
	dst = wire.AppendString(dst, principal)
	dst = append(dst, `,"results":[`...)
	for i := range results {
		if flush != nil && len(dst) >= respChunk {
			dst = flush(dst)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSubmitResult(dst, ps[i].Name, &results[i], flush)
	}
	return append(dst, "]}\n"...)
}

// rowsOf returns the answer whose rows appendSubmitResult writes for res —
// an admitted query's that evaluated and has rows — and nil when it writes
// none.
func rowsOf(res *disclosure.BatchResult) *disclosure.Answer {
	if res.Err != nil || !res.Decision.Allowed || res.Answer.Len() == 0 {
		return nil
	}
	return &res.Answer
}

// appendSubmitResult appends one SubmitResult: rows only for an admitted
// query that evaluated, the error text in their place otherwise. flush is
// appendSubmitChunks's hook.
func appendSubmitResult(dst []byte, query string, res *disclosure.BatchResult, flush func([]byte) []byte) []byte {
	dec := &res.Decision
	dst = append(dst, `{"query":`...)
	dst = wire.AppendString(dst, query)
	if dec.Allowed {
		dst = append(dst, `,"allowed":true`...)
	} else {
		dst = append(dst, `,"allowed":false`...)
	}
	if len(dec.Live) > 0 {
		dst = append(dst, `,"live":`...)
		dst = wire.AppendStrings(dst, dec.Live)
	}
	if res.Err != nil {
		if msg := res.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = wire.AppendString(dst, msg)
		}
	}
	if ans := rowsOf(res); ans != nil {
		dst = append(dst, `,"rows":[`...)
		for i := 0; i < ans.Len(); i++ {
			if flush != nil && len(dst) >= respChunk {
				dst = flush(dst)
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = ans.AppendRow(dst, i, wire.AppendString[[]byte])
		}
		dst = append(dst, ']')
	}
	if dec.Refusal != nil {
		dst = append(dst, `,"refusal":`...)
		dst = wire.AppendExplanation(dst, dec.Refusal)
	}
	return append(dst, '}')
}

// rowsSize returns the length of the rows array appendSubmitResult writes
// for results[i], summed over i, with each cell counted as its bytes
// between quotes (Answer.Size), and whether every cell is plain. The length
// is exact then, and a lower bound otherwise: escaping only lengthens a
// cell.
func rowsSize(results []disclosure.BatchResult) (size int, plain bool) {
	plain = true
	for i := range results {
		ans := rowsOf(&results[i])
		if ans == nil {
			continue
		}
		cells, p := ans.Size()
		// The key and brackets, a comma before each row but the first, and
		// the rows.
		size += len(`,"rows":[]`) + ans.Len() - 1 + rowBytes(ans, cells)
		plain = plain && p
	}
	return size, plain
}

// rowBytes returns the length of ans's rows, each as AppendRow writes it,
// when its cells take cells bytes between their quotes: per row, the
// brackets, the commas in it and the quotes around each value.
func rowBytes(ans *disclosure.Answer, cells int) int {
	w := ans.Width()
	return ans.Len()*(2+max(w-1, 0)+2*w) + cells
}

// escapedSize returns what escaping adds to rowsSize's count of results'
// cells: each answer with a cell that is not plain is encoded a row at a
// time into scratch.
func escapedSize(results []disclosure.BatchResult) int {
	extra := 0
	var scratch []byte
	for i := range results {
		ans := rowsOf(&results[i])
		if ans == nil {
			continue
		}
		cells, plain := ans.Size()
		if plain {
			continue
		}
		extra -= rowBytes(ans, cells)
		for r := 0; r < ans.Len(); r++ {
			scratch = ans.AppendRow(scratch[:0], r, wire.AppendString[[]byte])
			extra += len(scratch)
		}
	}
	return extra
}

// submitResponseSize returns the length of the body appendSubmitResponse
// appends for results, whose rows arrays take rows bytes: what surrounds
// them is encoded one result at a time into scratch.
func submitResponseSize(principal string, ps []*disclosure.Prepared, results []disclosure.BatchResult, rows int) int {
	scratch := appendSubmitResponse(nil, principal, nil, nil)
	size := len(scratch) + max(len(results)-1, 0) + rows
	for i := range results {
		rowless := results[i]
		rowless.Answer = disclosure.Answer{}
		scratch = appendSubmitResult(scratch[:0], ps[i].Name, &rowless, nil)
		size += len(scratch)
	}
	return size
}

// respFraming is the room a submit buffer keeps beside its rows for what
// surrounds them: the envelope, a result's query name and live partitions,
// the closing brackets, and a row that crosses the chunk's end.
const respFraming = 512

// respBufRetainLimit bounds the capacity of a submit buffer that goes back
// to the pool. A response holds no more than a chunk and what follows its
// last flush point, so what it guards against is a large request body (the
// serving layer's arenaRetainLimit).
const respBufRetainLimit = 1 << 20

// respBufs pools the buffers of submit requests: each holds the request's
// body and then its response (handleSubmit), and on the Client's side a
// response's body.
var respBufs = wire.NewBufPool(respBufRetainLimit)
