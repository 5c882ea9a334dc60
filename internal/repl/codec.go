package repl

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
)

// This file is the one codec of the decision RPC's two bodies. Both are a
// few dozen bytes of one fixed shape, and reflecting over them cost the two
// nodes more than the decision they carry. The encoders append exactly the
// bytes encoding/json writes; the scanners read the shapes the encoders
// emit —
//
//	{"principal":"…","query":"…","fingerprint":"…","epoch":N}    (epoch omitted when 0)
//	{"allowed":true,"live":["…",…]}                               (live omitted when empty)
//
// strings of plain bytes (engine.PlainByte), keys in that order and
// spelling, whitespace only after the closing brace — and hand everything
// else (a refusal's Explanation, escapes, non-ASCII, other key orders or
// spellings, unknown or duplicate keys, null, malformed input) to
// encoding/json on the same bytes, whose accept/reject behaviour and values
// are then the only ones there are: a scanner never rejects, it only
// declines. FuzzDecideRequest and FuzzDecideResponse hold the two equal.

// appendDecideRequest appends req as json.Marshal writes it.
func appendDecideRequest(dst []byte, req *DecideRequest) []byte {
	dst = append(dst, `{"principal":`...)
	dst = appendString(dst, req.Principal)
	dst = append(dst, `,"query":`...)
	dst = appendString(dst, req.Query)
	dst = append(dst, `,"fingerprint":`...)
	dst = appendString(dst, req.Fingerprint)
	if req.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, req.Epoch, 10)
	}
	return append(dst, '}')
}

// appendDecideResponse appends resp as json.Encoder writes it: the
// marshaled value and a newline. A refusal is marshaled by encoding/json.
func appendDecideResponse(dst []byte, resp *DecideResponse) []byte {
	dst = append(dst, `{"allowed":`...)
	dst = strconv.AppendBool(dst, resp.Allowed)
	if len(resp.Live) > 0 {
		dst = append(dst, `,"live":[`...)
		for i, s := range resp.Live {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, s)
		}
		dst = append(dst, ']')
	}
	if resp.Refusal != nil {
		refusal, _ := json.Marshal(resp.Refusal) // an Explanation is strings, bools and slices: it cannot fail
		dst = append(append(dst, `,"refusal":`...), refusal...)
	}
	return append(dst, "}\n"...)
}

// appendString appends s as a JSON string: between quotes when every byte
// is plain, encoded by encoding/json otherwise.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !engine.PlainByte(s[i]) {
			quoted, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
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
	sc := scanner{b: body}
	var principal []byte
	if !sc.lit(`{"principal":`) {
		return req, false
	}
	if principal, ok = sc.str(); !ok || !sc.lit(`,"query":`) {
		return req, false
	}
	if req.query, ok = sc.str(); !ok || !sc.lit(`,"fingerprint":`) {
		return req, false
	}
	if req.fingerprint, ok = sc.str(); !ok {
		return req, false
	}
	if sc.lit(`,"epoch":`) {
		// Digits with no leading zero: anything else — zero, which the
		// encoder omits, included — is encoding/json's to read.
		start := sc.i
		for sc.i < len(body) && body[sc.i] >= '0' && body[sc.i] <= '9' {
			sc.i++
		}
		var err error
		if sc.i == start || body[start] == '0' {
			return req, false
		}
		if req.epoch, err = strconv.ParseUint(string(body[start:sc.i]), 10, 64); err != nil {
			return req, false
		}
	}
	if !sc.end() {
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

// scanDecideResponse recognizes the encoder's shape without a refusal; ok
// is false for any other input, valid or not. The live partitions are cut
// from one string copied out of the body.
func scanDecideResponse(body []byte) (resp DecideResponse, ok bool) {
	sc := scanner{b: body}
	if !sc.lit(`{"allowed":`) {
		return resp, false
	}
	if resp.Allowed = sc.lit("true"); !resp.Allowed && !sc.lit("false") {
		return resp, false
	}
	if sc.lit(`,"live":[`) {
		// Delimit the array first, so its strings are one copy.
		start, n := sc.i, 0
		for more := true; more; n++ {
			if _, ok = sc.str(); !ok || sc.i == len(body) {
				return resp, false // an empty array included: encoding/json's value, not nil
			}
			if more = body[sc.i] == ','; !more && body[sc.i] != ']' {
				return resp, false
			}
			sc.i++
		}
		names := string(body[start : sc.i-1])
		resp.Live = make([]string, 0, n)
		for names != "" {
			name, rest, _ := strings.Cut(names[1:], `"`)
			resp.Live = append(resp.Live, name)
			names = strings.TrimPrefix(rest, ",")
		}
	}
	return resp, sc.end()
}

// scanner is the read position of one scan over a body.
type scanner struct {
	b []byte
	i int
}

// lit consumes x if the body continues with it.
func (sc *scanner) lit(x string) bool {
	if len(sc.b)-sc.i < len(x) || string(sc.b[sc.i:sc.i+len(x)]) != x {
		return false
	}
	sc.i += len(x)
	return true
}

// str reads a JSON string of plain bytes and returns its contents, a view
// into the body.
func (sc *scanner) str() ([]byte, bool) {
	b, i := sc.b, sc.i
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	start := i + 1
	for i = start; i < len(b) && engine.PlainByte(b[i]); i++ {
	}
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	sc.i = i + 1
	return b[start:i], true
}

// end reports whether the body continues with the closing brace and then
// JSON whitespace only.
func (sc *scanner) end() bool {
	return sc.lit("}") && len(bytes.Trim(sc.b[sc.i:], " \t\r\n")) == 0
}

// readAll appends everything r yields to buf, growing it as needed.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
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

// bufRetainLimit bounds the capacity of a body buffer that is kept for the
// next RPC, on either node: a decision's bodies are a few dozen bytes, and
// what it guards against is a large refusal or a malformed request.
const bufRetainLimit = 64 << 10

// decideBufs pools the primary's decide buffers: each holds a request's
// body and then its response (handleDecide). The pointer indirection keeps
// Put from allocating a slice header.
var decideBufs = sync.Pool{New: func() any { return new([]byte) }}
