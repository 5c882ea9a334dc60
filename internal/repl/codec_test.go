package repl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	disclosure "repro"
	"repro/internal/policy"
)

// FuzzDecideRequest holds the decision RPC's request codec to
// encoding/json: for any field values, appendDecideRequest writes exactly
// json.Marshal's bytes; for any body — those bytes, and raw input —
// decodeDecideRequest decodes what json.Decoder decodes, and fails where
// it fails.
func FuzzDecideRequest(f *testing.F) {
	f.Add("app", "QM(t) :- M(t, p)", "1f3a9c", uint64(0), []byte(`{"principal":"app","query":"QM(t) :- M(t, p)","fingerprint":"1f3a9c","epoch":3}`))
	f.Add(`a"b`, `Q(t) :- M(t, 'a\\b')`, "", uint64(1<<63), []byte(`{"query":"x","principal":"y"}`))
	f.Add("Zoë", "Q(x) :- M(x, '<&>')", "ff", uint64(7), []byte(`{"principal":"a","query":"b","fingerprint":"c","epoch":01}`))
	f.Add("", "", "", uint64(10), []byte(`{"principal":"a","query":"b","fingerprint":"c","epoch":18446744073709551616} `))
	f.Add("p", "q", "f", uint64(1), []byte(`{"principal":"a","query":"b","fingerprint":"c","Epoch":2,"epoch":3}`))
	f.Add("p", "q", "f", uint64(1), []byte(`{"principal":"a","query":"b","fingerprint":"c"}trailing`))
	f.Fuzz(func(t *testing.T, principal, query, fingerprint string, epoch uint64, raw []byte) {
		req := DecideRequest{Principal: principal, Query: query, Fingerprint: fingerprint, Epoch: epoch}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDecideRequest(nil, &req); !bytes.Equal(got, want) {
			t.Fatalf("appendDecideRequest(%+v)\n got %s\nwant %s", req, got, want)
		}
		for _, body := range [][]byte{want, raw} {
			var ref DecideRequest
			refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
			got, err := decodeDecideRequest(body)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("decodeDecideRequest(%q) err = %v, encoding/json's = %v", body, err, refErr)
			}
			if err != nil {
				continue
			}
			dec := DecideRequest{Principal: got.principal, Query: string(got.query), Fingerprint: string(got.fingerprint), Epoch: got.epoch}
			if dec != ref {
				t.Fatalf("decodeDecideRequest(%q) = %+v, encoding/json's = %+v", body, dec, ref)
			}
		}
	})
}

// FuzzDecideResponse is FuzzDecideRequest for the response: the encoder
// writes json.Encoder's bytes (its newline included) for any decision, the
// live partitions given as a NUL-separated list and a refusal with or
// without; the decoder reads any body as json.Decoder does.
func FuzzDecideResponse(f *testing.F) {
	f.Add(true, "W1\x00W2", false, "", []byte(`{"allowed":true,"live":["W1","W2"]}`+"\n"))
	f.Add(false, "W<1>", true, "Q&", []byte(`{"allowed":false,"live":[],"refusal":{"query":"QM","partitions":null}}`))
	f.Add(true, "", false, "", []byte(`{"allowed":true,"live":["a",]}`))
	f.Add(false, "\x00", true, " ", []byte(`{"allowed":true,"live":["a\"b"]}`))
	f.Add(true, "W1", false, "", []byte(`{"allowed":true,"Allowed":false}`))
	f.Add(true, "W1", false, "", []byte(` {"allowed":null}`))
	// Refusals: labels ⊤ and ⊗, three partitions, partitions and views null
	// and empty — the encoder's shapes, which the refusal reader takes — and
	// a view name with & and U+2028 and a label of invalid UTF-8, which the
	// encoder escapes (the last as \ufffd) and the reader must decline, and
	// the same label raw.
	f.Add(false, "⊤", true, "Q", []byte(nil))
	f.Add(false, "{a} ⊗ {b}", true, "Q", []byte(nil))
	f.Add(false, "{bad \xff}", true, "Tom & Jerry\u2028", []byte(nil))
	for _, refusal := range []string{
		`{"query":"Q","label":"⊤","admissible":false,"cumulative":"⊥","partitions":[{"name":"all","views":["user_basic","friend_list"],"live":true,"dominates":false}]}`,
		`{"query":"Q","label":"{a} ⊗ {b}","admissible":true,"cumulative":"{a}","partitions":[{"name":"profile","views":["user_basic"],"live":true,"dominates":true},{"name":"media","views":null,"live":false,"dominates":false},{"name":"places","views":[],"live":true,"dominates":false}]}`,
		`{"query":"Q","label":"⊥","admissible":false,"cumulative":"⊥","partitions":null}`,
		`{"query":"Q","label":"⊥","admissible":false,"cumulative":"⊥","partitions":[]}`,
		`{"query":"Q","label":"{v}","admissible":false,"cumulative":"⊥","partitions":[{"name":"W","views":["Tom \u0026 Jerry","line\u2028sep"],"live":false,"dominates":false}]}`,
		`{"query":"Q","label":"{bad \ufffd}","admissible":false,"cumulative":"⊥","partitions":null}`,
		"{\"query\":\"Q\",\"label\":\"{bad \xff}\",\"admissible\":false,\"cumulative\":\"⊥\",\"partitions\":null}",
	} {
		f.Add(false, "W1", true, "Q", []byte(`{"allowed":false,"live":["W1"],"refusal":`+refusal+"}\n"))
	}
	f.Fuzz(func(t *testing.T, allowed bool, live string, refused bool, query string, raw []byte) {
		resp := DecideResponse{Allowed: allowed}
		if live != "" {
			resp.Live = strings.Split(live, "\x00")
		}
		if refused {
			resp.Refusal = &disclosure.Explanation{Query: query, Label: live, Partitions: []policy.PartitionStatus{{Name: query, Live: allowed}}}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendDecideResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendDecideResponse(%+v)\n got %s\nwant %s", resp, got, want.Bytes())
		}
		for _, body := range [][]byte{want.Bytes(), raw} {
			var ref DecideResponse
			refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
			got, err := decodeDecideResponse(body)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("decodeDecideResponse(%q) err = %v, encoding/json's = %v", body, err, refErr)
			}
			if err == nil && !reflect.DeepEqual(got, ref) {
				t.Fatalf("decodeDecideResponse(%q) = %+v, encoding/json's = %+v", body, got, ref)
			}
		}
	})
}

// TestDecideCodecsScan: the shapes the encoders emit for plain values are
// scanned, not handed to encoding/json — the fuzz targets only prove the
// two agree, which a scanner that always declined would too.
func TestDecideCodecsScan(t *testing.T) {
	req := DecideRequest{Principal: "app", Query: "QM(t) :- M(t, p)", Fingerprint: "9e3779b97f4a7c15", Epoch: 4}
	for _, r := range []DecideRequest{req, {Principal: req.Principal, Query: req.Query}} {
		if _, ok := scanDecideRequest(appendDecideRequest(nil, &r)); !ok {
			t.Errorf("the request %+v was not scanned", r)
		}
	}
	refusal := &disclosure.Explanation{Query: "Q", Label: "{a} ⊗ ⊤", Cumulative: "⊥", Partitions: []policy.PartitionStatus{
		{Name: "W1", Views: []string{"a", "b"}, Live: true}, {Name: "W2", Views: []string{}}, {Name: "W3"},
	}}
	for _, r := range []DecideResponse{{Allowed: true, Live: []string{"W1", "W2"}}, {Allowed: false}, {Live: []string{"W1"}, Refusal: refusal}} {
		if _, ok := scanDecideResponse(appendDecideResponse(nil, &r)); !ok {
			t.Errorf("the response %+v was not scanned", r)
		}
	}
}
