package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	disclosure "repro"
	"repro/internal/engine"
	"repro/internal/fb"
)

// wireResponse builds the SubmitResponse a batch's results stand for: the
// value whose reflective encoding defines the wire format, and so the
// bytes appendSubmitResponse must reproduce.
func wireResponse(principal string, qs []*disclosure.Prepared, results []disclosure.BatchResult) SubmitResponse {
	resp := SubmitResponse{Principal: principal, Results: make([]SubmitResult, len(results))}
	for i, res := range results {
		dec := res.Decision
		out := SubmitResult{Query: qs[i].Name, Allowed: dec.Allowed, Live: dec.Live, Refusal: dec.Refusal}
		if res.Err != nil {
			out.Error = res.Err.Error()
		} else if dec.Allowed {
			rows := res.Answer.Rows()
			out.Rows = make([][]string, len(rows))
			for j, row := range rows {
				out.Rows[j] = row
			}
		}
		resp.Results[i] = out
	}
	return resp
}

// fuzzBatch builds the batch of results one fuzz input stands for: bit i of
// shape selects the i-th of eight result shapes, the fuzzed strings fill
// them.
func fuzzBatch(t testing.TB, query, val string, shape uint8) ([]*disclosure.Prepared, []disclosure.BatchResult) {
	// The refusal body in every shape encoding/json distinguishes: labels
	// with the lattice's non-ASCII ⊗ and ⊤ around the fuzzed value, and
	// partition and view lists nil (null), empty ([]) and filled.
	refusal := &disclosure.Explanation{
		Query: query, Label: "{" + val + "} ⊗ ⊤", Admissible: len(val)%2 == 1,
		Cumulative: val, Accepted: 3, Refused: -len(query),
	}
	switch (int(shape) + len(val)) % 4 {
	case 1:
		refusal.Partitions = []disclosure.PartitionStatus{}
	case 2:
		refusal.Partitions = []disclosure.PartitionStatus{{Name: val, Live: true}}
	case 3:
		refusal.Partitions = []disclosure.PartitionStatus{
			{Name: "⊤", Views: []string{}, Dominates: true},
			{Name: val, Views: []string{"user_basic", val, "a ⊗ b"}, Live: true},
		}
	}
	// Answers are the engine's (answerOf): the rows of one have one width
	// and none is nil, so those are not shapes the encoder can be handed.
	admit := func(live, consts []string, rows ...disclosure.Tuple) disclosure.BatchResult {
		return disclosure.BatchResult{Decision: disclosure.Decision{Allowed: true, Live: live}, Answer: answerOf(t, consts, rows...)}
	}
	one := answerOf(t, nil, disclosure.Tuple{val})
	all := []disclosure.BatchResult{
		admit([]string{"W1", val}, nil, disclosure.Tuple{val, "b"}, disclosure.Tuple{"c", val}),
		admit(nil, nil, disclosure.Tuple{}),                                                      // a satisfied boolean query: [[]]
		admit([]string{val}, nil),                                                                // an admit with no rows: no rows key
		admit(nil, []string{val, "k"}, disclosure.Tuple{val}, disclosure.Tuple{"z"}),             // head constants, interned nowhere
		{Decision: disclosure.Decision{Live: []string{}}, Err: errors.New(val)},                  // a submission error
		{Decision: disclosure.Decision{Allowed: true}, Answer: one, Err: errors.New("e<" + val)}, // an evaluation error: no rows
		{Decision: disclosure.Decision{Live: []string{"W2"}, Refusal: refusal}},                  // a refusal
		{Decision: disclosure.Decision{Refusal: refusal}, Answer: one, Err: errors.New("")},      // everything at once
	}
	var qs []*disclosure.Prepared
	var results []disclosure.BatchResult
	for i, r := range all {
		if shape&(1<<i) != 0 {
			name := query
			if i%2 == 1 {
				name = val
			}
			qs = append(qs, &disclosure.Prepared{Name: name})
			results = append(results, r)
		}
	}
	return qs, results
}

// addResponseCorpus seeds a fuzz target over (principal, query, val, shape)
// inputs of fuzzBatch.
func addResponseCorpus(f *testing.F) {
	for _, s := range []string{
		"", "plain", `quote " and \ backslash`, "ctl \x00\x01\n\r\t\x1f\x7f", "<script>&amp;</script>",
		"sep \u2028 and \u2029", "bad utf-8 \xff\xfe \xc3", "multi-byte é 世界 😀", "\xe2\x80", "a\u2028",
	} {
		f.Add(s, s, s, uint8(0xff))
		f.Add("app", "Q", s, uint8(0x0f))
		f.Add(s, "Q", "x", uint8(0xf0))
	}
	for shape := uint8(0); shape < 16; shape++ {
		f.Add("app-0", "Q27", "u1153", shape)
	}
	for _, val := range []string{"", "⊥", "{user_basic} ⊗ {friends_likes}", "\u2028"} {
		for shape := uint8(0xc0); shape < 0xc4; shape++ {
			f.Add("app-0", "Q", val, shape)
		}
	}
}

// FuzzSubmitResponseJSON is the byte-compatibility proof of the submit
// encoder: whatever strings reach a response, appendSubmitResponse's bytes
// are the ones encoding/json's Encoder gives for the plain wire value.
func FuzzSubmitResponseJSON(f *testing.F) {
	addResponseCorpus(f)
	f.Fuzz(func(t *testing.T, principal, query, val string, shape uint8) {
		qs, results := fuzzBatch(t, query, val, shape)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(wireResponse(principal, qs, results)); err != nil {
			t.Fatal(err)
		}
		got := appendSubmitResponse(nil, principal, qs, results)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendSubmitResponse:\n got %s\nwant %s", got, want.Bytes())
		}
	})
}

// largeAnswer is the scan_load-shaped answer of the in-tree micro
// benchmarks: ≈ 640 rows of six values from the 2000-user facebook preset.
func largeAnswer(tb testing.TB) disclosure.Answer {
	tb.Helper()
	db := engine.NewDatabase(fb.Schema())
	if err := fb.GenerateGraph(db, 2000, 2013); err != nil {
		tb.Fatal(err)
	}
	ans, err := db.EvalCanonicalAt(db.Snapshot(), disclosure.PrepareQuery(disclosure.MustParse(fb.LargeAnswerQuery)))
	if err != nil || ans.Len() < 300 {
		tb.Fatalf("large answer has %d rows (err %v), want ≈ 640", ans.Len(), err)
	}
	return ans
}

// BenchmarkSubmitResponseEncode puts one ≈ 640-row answer through
// appendSubmitResponse, as the handler does, and through encoding/json's
// reflection over the wire value, rows copy included (information, not a
// gate).
func BenchmarkSubmitResponseEncode(b *testing.B) {
	qs := []*disclosure.Prepared{{Name: "Q"}}
	results := []disclosure.BatchResult{{
		Decision: disclosure.Decision{Allowed: true, Live: []string{"P0"}},
		Answer:   largeAnswer(b),
	}}
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendSubmitResponse(buf[:0], "app-0", qs, results)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(wireResponse("app-0", qs, results)); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}

// TestRespBufRetainLimit pins the pooled buffer's bound: a response that
// grew its buffer past respBufRetainLimit does not leave it in the pool.
func TestRespBufRetainLimit(t *testing.T) {
	big := make([]byte, 0, respBufRetainLimit+1)
	putRespBuf(&big)
	for i := 0; i < 64; i++ {
		if b := respBufs.Get().(*[]byte); cap(*b) > respBufRetainLimit {
			t.Fatalf("the pool handed back a %d-byte buffer, over the %d-byte retain limit", cap(*b), respBufRetainLimit)
		}
	}
}

// connCounter counts the connections a test server accepts.
type connCounter struct{ opened atomic.Int64 }

func (c *connCounter) hook(_ net.Conn, st http.ConnState) {
	if st == http.StateNew {
		c.opened.Add(1)
	}
}

// startCountingServer is startServer behind an http.Server whose ConnState
// hook counts accepted connections, with pad rows of filler loaded so that
// the Pad query answers with a body of several tens of kilobytes.
func startCountingServer(t *testing.T, pad int) (*connCounter, string) {
	t.Helper()
	srv, _ := startServer(t, Options{})
	err := srv.System().LoadBatch(func(ld *disclosure.Loader) error {
		for i := 0; i < pad; i++ {
			ld.MustInsert("Meetings", fmt.Sprintf("slot-%04d-%s", i, strings.Repeat("x", 40)), "Pad")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var cc connCounter
	hs := &http.Server{Handler: srv.Handler(), ConnState: cc.hook}
	go func() { _ = hs.Serve(l) }()
	t.Cleanup(func() { _ = hs.Close() })
	return &cc, "http://" + l.Addr().String()
}

// oneConnClient returns an http.Client that may hold one connection to the
// server, like each app of the benchmark's load generator.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// rawSubmit posts one query without the typed Client and returns the
// response with its body read to the end.
func rawSubmit(t *testing.T, hc *http.Client, base, token, query string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(SubmitRequest{Query: query})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestClientReusesConnection: every Client call reads its response to the
// end, so a long run of admin calls and submits — with answers of a few
// bytes and of tens of kilobytes — travels over one accepted connection.
func TestClientReusesConnection(t *testing.T) {
	cc, base := startCountingServer(t, 400)
	hc := oneConnClient()
	admin := &Client{BaseURL: base, Token: "admin-tok", HTTP: hc}
	app := &Client{BaseURL: base, Token: "app-tok", HTTP: hc}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"all": {"V1", "V2", "V3"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := admin.Load([]LoadRow{{Rel: "Meetings", Values: []string{fmt.Sprintf("late-%d", i), "Jim"}}}); err != nil {
			t.Fatal(err)
		}
		q := "Small(t) :- Meetings(t, 'Cathy')"
		if i%2 == 0 {
			q = "Large(t) :- Meetings(t, 'Pad')"
		}
		res, err := app.Submit(q)
		if err != nil || !res.Allowed {
			t.Fatalf("submit %d: %+v, %v", i, res, err)
		}
		if i%2 == 0 && len(res.Rows) != 400 {
			t.Fatalf("large answer has %d rows, want 400", len(res.Rows))
		}
	}
	// A refused call's error body is drained too.
	if err := admin.Load(nil); err == nil {
		t.Fatal("empty load accepted")
	}
	if err := admin.RemovePolicy("app"); err != nil {
		t.Fatal(err)
	}
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("the server accepted %d connections, want 1", n)
	}
}

// TestSubmitLengthDelimited: a submit response announces its length and is
// not chunk-framed, whatever its size, and leaves the connection reusable.
func TestSubmitLengthDelimited(t *testing.T) {
	cc, base := startCountingServer(t, 400)
	hc := oneConnClient()
	admin := &Client{BaseURL: base, Token: "admin-tok", HTTP: hc}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"all": {"V1", "V2", "V3"}}); err != nil {
		t.Fatal(err)
	}
	for i, q := range []string{"Large(t) :- Meetings(t, 'Pad')", "Small(t) :- Meetings(t, 'Cathy')", "Large(t) :- Meetings(t, 'Pad')"} {
		resp, body := rawSubmit(t, hc, base, "app-tok", q)
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("request %d: Transfer-Encoding %v, want none", i, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("request %d: Content-Length %d for a %d-byte body", i, resp.ContentLength, len(body))
		}
		if i != 1 && len(body) < 16<<10 {
			t.Errorf("request %d: large answer is only %d bytes, want ≥ 16 KB", i, len(body))
		}
		if !bytes.HasSuffix(body, []byte("}\n")) {
			t.Errorf("request %d: body does not end in the encoder's newline", i)
		}
		var decoded SubmitResponse
		if err := json.Unmarshal(body, &decoded); err != nil || len(decoded.Results) != 1 || !decoded.Results[0].Allowed {
			t.Fatalf("request %d: body does not decode to one admit: %v", i, err)
		}
	}
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("the server accepted %d connections, want 1", n)
	}
}

// TestResponseBytesMetric: disclosure_http_response_bytes_total counts, per
// route, exactly the body bytes clients read — the server-side twin of the
// benchmark's client-side server.resp_bytes_per_op — and a sorted answer
// shows up as an observation of the engine's rank-extension histogram.
func TestResponseBytesMetric(t *testing.T) {
	_, base := startCountingServer(t, 50)
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"all": {"V1", "V2", "V3"}}); err != nil {
		t.Fatal(err)
	}
	var read int
	for _, q := range []string{"Large(t) :- Meetings(t, 'Pad')", "Small(t) :- Meetings(t, 'Cathy')", "Walled(p, e) :- Contacts(p, e, r), Meetings(t, p)"} {
		_, body := rawSubmit(t, http.DefaultClient, base, "app-tok", q)
		read += len(body)
	}
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer admin-tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exposition bytes.Buffer
	if _, err := exposition.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("disclosure_http_response_bytes_total{route=\"POST /v1/submit\"} %d\n", read)
	if !strings.Contains(exposition.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
	for _, family := range []string{
		"# TYPE disclosure_http_response_bytes_total counter",
		"# TYPE disclosure_engine_rank_extend_seconds histogram",
		"disclosure_http_response_bytes_total{route=\"PUT /v1/policy/{principal}\"} ",
	} {
		if !strings.Contains(exposition.String(), family) {
			t.Errorf("/metrics lacks %q", family)
		}
	}
	if strings.Contains(exposition.String(), "disclosure_engine_rank_extend_seconds_count 0\n") {
		t.Error("a sorted answer left no rank-extension observation")
	}
}
