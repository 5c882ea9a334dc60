package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	disclosure "repro"
)

// checkScan holds the scanner to encoding/json on one body: whatever it
// accepts, json.Decoder accepts with the same value, and everything else is
// json.Decoder's to decide. It reports whether the scanner took the body.
func checkScan(t *testing.T, body string) bool {
	t.Helper()
	got, ok := scanSubmitResponse(body, 1)
	if !ok {
		return false
	}
	var want SubmitResponse
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("the scanner accepted a body encoding/json rejects (%v):\n%s", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned value differs from encoding/json's:\n body %s\n  got %+v\n want %+v", body, got, want)
	}
	return true
}

// FuzzSubmitResponseDecode is the value-compatibility proof of the client's
// response scanner over arbitrary bytes: accept/reject and values are
// encoding/json's on every input, the encoder's bodies or not.
func FuzzSubmitResponseDecode(f *testing.F) {
	// A real body: an answer, a boolean answer, a per-result error and a
	// refusal in one batch — whole, and cut at every byte.
	qs, results := fuzzBatch(f, "Q", "u1153", 0b01010011)
	real := string(appendSubmitResponse(nil, "app-0", qs, results))
	for i := 0; i <= len(real); i++ {
		f.Add(real[:i])
	}
	for _, body := range []string{
		// Strings the scanner hands to encoding/json as one token, or must not take for plain.
		`{"principal":"a\u0041\n","results":[{"query":"\ud83d\ude00","allowed":true,"rows":[["\"","\\","\u2028","<>&"]]}]}`,
		"{\"principal\":\"sep \u2028 \u2029\",\"results\":[{\"query\":\"é 世界\",\"allowed\":true,\"live\":[\"bad \xff\xfe \xc3\"]}]}",
		"{\"principal\":\"ctl \x00\x1f\",\"results\":[]}", `{"principal":"lone \ud800","results":[]}`, `{"principal":"\x","results":[]}`,
		// Values that are not the encoder's spelling.
		`{"principal":"p","results":[{"query":"q","allowed":true,"rows":null}]}`, `{"principal":"p","results":[{"query":"q","allowed":true,"rows":[]}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":true,"rows":[[]]}]}`, `{"principal":"p","results":[{"query":"q","allowed":true,"rows":[[],[]],"live":[]}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":false,"live":null,"refusal":null}]}`, `{"principal":"p","results":null}`, `{"principal":null,"results":[]}`,
		`{"principal":"p","results":[{"query":"q","allowed":false,"refusal":{"query":"q","label":"⊤","partitions":[{"name":"}{"}]}}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":false,"refusal":{"Query":"q","query":"r","extra":{"a":[1,2]}}}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":false,"refusal":[{}]}]}`, `{"principal":"p","results":[{"query":"q","allowed":false,"refusal":{}}]}`,
		// Keys: duplicate, unknown, other spellings and orders.
		`{"principal":"p","principal":"q","results":[]}`, `{"principal":"p","results":[],"results":[{"query":"q","allowed":true}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":true,"allowed":false}]}`, `{"principal":"p","results":[{"query":"q","allowed":true,"x":1}]}`,
		`{"Principal":"p","RESULTS":[{"Query":"q","Allowed":true}]}`, `{"results":[{"allowed":true,"query":"q"}],"principal":"p"}`,
		`{"principal":"p","results":[{"query":"q","allowed":true,"rows":[["a"]],"live":["W"]}]}`,
		// Whitespace, trailing data, malformed input.
		"{\"principal\":\"p\",\"results\":[]}\n", "{\"principal\":\"p\",\"results\":[]} \t\r\n ", ` {"principal":"p","results":[]}`, `{"principal":"p", "results":[]}`,
		`{"principal":"p","results":[]}{"principal":"q","results":[]}`, `{"principal":"p","results":[]}]`, `{"principal":"p","results":[]}x`,
		`{"principal":"p","results":[{"query":"q","allowed":true,"live":["a"}]}`, `{"principal":"p","results":[{"query":"q","allowed":true,"rows":[["a"]["b"]]}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":true}{"query":"q","allowed":true}]}`, `{"principal":"p","results":[{"query":"q","allowed":truex}]}`,
		`{"principal":"p","results":[{"query":"q","allowed":true,"rows":[["a",]]}]}`, `{"principal":"p","results":[,]}`, "", "null", "[]", `"p"`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkScan(t, body)
		// The decoder is the scanner or, when it declines, encoding/json.
		var want SubmitResponse
		werr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		got, err := decodeSubmitResponse(body, 1)
		if (err == nil) != (werr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("decodeSubmitResponse(%q) = (%+v, %v), encoding/json (%+v, %v)", body, got, err, want, werr)
		}
	})
}

// FuzzSubmitResponseRoundTrip is the round-trip property over the encoder's
// own bodies — the FuzzSubmitResponseJSON corpus — which the scanner must
// take itself, not decline: decoding what appendSubmitResponse wrote gives
// the value encoding/json reads there, and unless a string was rewritten on
// the way (invalid UTF-8 becomes U+FFFD) its rows are the rows encoded.
func FuzzSubmitResponseRoundTrip(f *testing.F) {
	addResponseCorpus(f)
	f.Fuzz(func(t *testing.T, principal, query, val string, shape uint8) {
		qs, results := fuzzBatch(t, query, val, shape)
		body := string(appendSubmitResponse(nil, principal, qs, results))
		if !checkScan(t, body) {
			t.Fatalf("the scanner declined the encoder's body:\n%s", body)
		}
		if utf8.ValidString(val) {
			got, _ := scanSubmitResponse(body, len(results))
			for i, res := range results {
				if rows := res.Answer.Rows(); res.Err == nil && res.Decision.Allowed && !equalRows(got.Results[i].Rows, rows) {
					t.Fatalf("result %d decoded to rows %q, encoded from %q", i, got.Results[i].Rows, rows)
				}
			}
		}
	})
}

// equalRows compares decoded rows with an answer's, nil and empty alike.
func equalRows(got [][]string, want []disclosure.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}
