package repl

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/policy"
	"repro/internal/wire"
)

// This file is the one codec of the decision RPC's two bodies, appended
// and scanned with package wire's primitives:
//
//	{"principal":"…","query":"…","fingerprint":"…","epoch":N}    (epoch omitted when 0)
//	{"allowed":true,"live":["…",…],"refusal":{…}}                (live omitted when empty, refusal when nil)
//
// The scanners read these shapes, keys in that order and spelling, strings
// with no escape, whitespace only after the closing brace; a refusal is
// read by wire.Scanner.Explanation, the reader of the object
// AppendExplanation writes. They decline the rest to encoding/json.
// FuzzDecideRequest and FuzzDecideResponse hold the two equal.

// appendDecideRequest appends req as json.Marshal writes it.
func appendDecideRequest(dst []byte, req *DecideRequest) []byte {
	dst = append(dst, `{"principal":`...)
	dst = wire.AppendString(dst, req.Principal)
	dst = append(dst, `,"query":`...)
	dst = wire.AppendString(dst, req.Query)
	dst = append(dst, `,"fingerprint":`...)
	dst = wire.AppendString(dst, req.Fingerprint)
	if req.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, req.Epoch, 10)
	}
	return append(dst, '}')
}

// appendDecideResponse appends resp as json.Encoder writes it: the
// marshaled value and a newline.
func appendDecideResponse(dst []byte, resp *DecideResponse) []byte {
	dst = append(dst, `{"allowed":`...)
	dst = strconv.AppendBool(dst, resp.Allowed)
	if len(resp.Live) > 0 {
		dst = append(dst, `,"live":`...)
		dst = wire.AppendStrings(dst, resp.Live)
	}
	if resp.Refusal != nil {
		dst = append(dst, `,"refusal":`...)
		dst = wire.AppendExplanation(dst, resp.Refusal)
	}
	return append(dst, "}\n"...)
}

// decideBody is a decoded DecideRequest whose query text and fingerprint
// are still bytes: views into the request body on the plain shape, so a
// text the primary's query memo already knows is never copied. They are
// valid until the body's buffer is reused.
type decideBody struct {
	principal   string
	query       []byte
	fingerprint []byte
	epoch       uint64
}

// decodeDecideRequest decodes a whole request body as json.Decoder decodes
// its first value into a DecideRequest.
func decodeDecideRequest(body []byte) (decideBody, error) {
	if req, ok := scanDecideRequest(body); ok {
		return req, nil
	}
	var req DecideRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return decideBody{}, err
	}
	return decideBody{principal: req.Principal, query: []byte(req.Query), fingerprint: []byte(req.Fingerprint), epoch: req.Epoch}, nil
}

// scanDecideRequest recognizes the encoder's shape; ok is false for any
// other input, valid or not.
func scanDecideRequest(body []byte) (req decideBody, ok bool) {
	sc := wire.Scanner[[]byte]{Body: body}
	var principal []byte
	if !sc.Lit(`{"principal":`) {
		return req, false
	}
	if principal, ok = sc.Unescaped(); !ok || !sc.Lit(`,"query":`) {
		return req, false
	}
	if req.query, ok = sc.Unescaped(); !ok || !sc.Lit(`,"fingerprint":`) {
		return req, false
	}
	if req.fingerprint, ok = sc.Unescaped(); !ok {
		return req, false
	}
	if sc.Lit(`,"epoch":`) {
		// Digits with no leading zero: anything else — zero, which the
		// encoder omits, included — is encoding/json's to read.
		start := sc.Pos
		for sc.Pos < len(body) && body[sc.Pos] >= '0' && body[sc.Pos] <= '9' {
			sc.Pos++
		}
		var err error
		if sc.Pos == start || body[start] == '0' {
			return req, false
		}
		if req.epoch, err = strconv.ParseUint(string(body[start:sc.Pos]), 10, 64); err != nil {
			return req, false
		}
	}
	if !sc.End() {
		return req, false
	}
	req.principal = string(principal)
	return req, true
}

// decodeDecideResponse decodes a whole response body as json.Decoder
// decodes its first value into a DecideResponse. The strings it returns are
// copies: body may be reused.
func decodeDecideResponse(body []byte) (DecideResponse, error) {
	if resp, ok := scanDecideResponse(body); ok {
		return resp, nil
	}
	var resp DecideResponse
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp)
	return resp, err
}

// scanDecideResponse recognizes the encoder's shape; ok is false for any
// other input, valid or not. The body is copied once into a string, and the
// live partitions and a refusal's strings are cut from it.
func scanDecideResponse(body []byte) (resp DecideResponse, ok bool) {
	sc := wire.Scanner[string]{Body: string(body)}
	if !sc.Lit(`{"allowed":`) {
		return resp, false
	}
	if resp.Allowed = sc.Lit("true"); !resp.Allowed && !sc.Lit("false") {
		return resp, false
	}
	if sc.Lit(`,"live":`) {
		if resp.Live, ok = sc.Strings(); !ok {
			return resp, false
		}
	}
	if sc.Lit(`,"refusal":`) {
		resp.Refusal = new(policy.Explanation)
		if !sc.Explanation(resp.Refusal) {
			return resp, false
		}
	}
	return resp, sc.End()
}

// bufRetainLimit bounds the capacity of a body buffer that is kept for the
// next RPC, on either node: a decision's bodies are a few dozen bytes, and
// what it guards against is a large refusal or a malformed request.
const bufRetainLimit = 64 << 10

// decideBufs pools the primary's decide buffers: each holds a request's
// body and then its response (handleDecide).
var decideBufs = wire.NewBufPool(bufRetainLimit)
