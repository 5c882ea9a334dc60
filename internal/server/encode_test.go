package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/schema"
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
// shape selects the i-th of eleven result shapes, the fuzzed strings fill
// them.
func fuzzBatch(t testing.TB, query, val string, shape uint16) ([]*disclosure.Prepared, []disclosure.BatchResult) {
	// The refusal body in every shape encoding/json distinguishes: labels
	// with the lattice's non-ASCII ⊗ and ⊤ around the fuzzed value, and
	// partition and view lists nil (null), empty ([]) and filled.
	refusal := &disclosure.Explanation{
		Query: query, Label: "{" + val + "} ⊗ ⊤", Admissible: len(val)%2 == 1,
		Cumulative: val,
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
	// Rows of ten cells, each 13 plain bytes (past a dictionary slot), a
	// value to escape or the fuzzed one: wider than any room reserved for
	// a row at its start.
	wide := func(r int) disclosure.Tuple {
		row := make(disclosure.Tuple, 10)
		for j := range row {
			row[j] = [3]string{fmt.Sprintf("thirteen %d:%02d", r, j), fmt.Sprintf(`esc "%d" <%02d>`, r, j), val}[j%3]
		}
		return row
	}
	v0, v1 := cq.V("v0"), cq.V("v1")
	mixed := func(head ...cq.Term) disclosure.BatchResult {
		return disclosure.BatchResult{Decision: disclosure.Decision{Allowed: true}, Answer: answerHead(t, head, disclosure.Tuple{val, "b"}, disclosure.Tuple{"twelve bytes", val})}
	}
	all := []disclosure.BatchResult{
		admit([]string{"W1", val}, nil, disclosure.Tuple{val, "b"}, disclosure.Tuple{"c", val}),
		admit(nil, nil, disclosure.Tuple{}),                                                      // a satisfied boolean query: [[]]
		admit([]string{val}, nil),                                                                // an admit with no rows: no rows key
		admit(nil, []string{val, "k"}, disclosure.Tuple{val}, disclosure.Tuple{"z"}),             // head constants, interned nowhere
		{Decision: disclosure.Decision{Live: []string{}}, Err: errors.New(val)},                  // a submission error
		{Decision: disclosure.Decision{Allowed: true}, Answer: one, Err: errors.New("e<" + val)}, // an evaluation error: no rows
		{Decision: disclosure.Decision{Live: []string{"W2"}, Refusal: refusal}},                  // a refusal
		{Decision: disclosure.Decision{Refusal: refusal}, Answer: one, Err: errors.New("")},      // everything at once
		mixed(cq.C(val), v0, cq.C("<k>"), v1, cq.C("thirteen byte")),                             // head constants before, between and after the variables
		mixed(v1, v0, v1, cq.C(val), v1),                                                         // repeated head variables
		admit(nil, nil, wide(0), wide(1), wide(2)),                                               // rows wider than their reserved room
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
// inputs of fuzzBatch: every string through every shape, and each shape on
// its own. The seeds of the three row-kernel shapes (bits 8–10) come last,
// so the earlier seeds keep their numbers.
func addResponseCorpus(f *testing.F) {
	strs := []string{
		"", "plain", `quote " and \ backslash`, "ctl \x00\x01\n\r\t\x1f\x7f", "<script>&amp;</script>",
		"sep \u2028 and \u2029", "bad utf-8 \xff\xfe \xc3", "multi-byte é 世界 😀", "\xe2\x80", "a\u2028",
		// A dictionary slot holds 12 bytes: plain and escaped values on both
		// sides of the boundary, through both of the encoder's cell paths.
		"twelve bytes", "thirteen byte", "12 bytes <&>", `13 bytes: "\"`, "12 bytes é!",
	}
	vals := []string{"", "⊥", "{user_basic} ⊗ {friends_likes}", "\u2028"}
	for _, s := range strs {
		f.Add(s, s, s, uint16(0xff))
		f.Add("app", "Q", s, uint16(0x0f))
		f.Add(s, "Q", "x", uint16(0xf0))
	}
	for shape := uint16(0); shape < 16; shape++ {
		f.Add("app-0", "Q27", "u1153", shape)
	}
	for _, val := range vals {
		for shape := uint16(0xc0); shape < 0xc4; shape++ {
			f.Add("app-0", "Q", val, shape)
		}
	}
	for _, s := range strs {
		f.Add("app", "Q", s, uint16(0x700))
		f.Add(s, s, s, uint16(0x7ff))
	}
	for _, val := range vals {
		for bit := 8; bit < 11; bit++ {
			f.Add("app-0", "Q", val, uint16(1)<<bit)
		}
	}
}

// FuzzSubmitResponseJSON is the byte-compatibility proof of the submit
// encoder: whatever strings reach a response, appendSubmitResponse's bytes
// are the ones encoding/json's Encoder gives for the plain wire value.
func FuzzSubmitResponseJSON(f *testing.F) {
	addResponseCorpus(f)
	f.Fuzz(func(t *testing.T, principal, query, val string, shape uint16) {
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

// FuzzSubmitResponseSize: the length a chunked response announces before
// its first byte — the rows measured, plus what escaping adds — is the
// length of the body appendSubmitResponse gives, and the rows' measure adds
// nothing for escaping when every cell is plain.
func FuzzSubmitResponseSize(f *testing.F) {
	addResponseCorpus(f)
	f.Fuzz(func(t *testing.T, principal, query, val string, shape uint16) {
		qs, results := fuzzBatch(t, query, val, shape)
		body := appendSubmitResponse(nil, principal, qs, results)
		rows, plain := rowsSize(results)
		extra := escapedSize(results)
		if got := submitResponseSize(principal, qs, results, rows+extra); got != len(body) {
			t.Fatalf("submitResponseSize = %d for a body of %d bytes: %s", got, len(body), body)
		}
		if extra < 0 || (plain && extra != 0) {
			t.Fatalf("escaping adds %d bytes to rows whose cells are plain: %v", extra, plain)
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
	return evalLarge(tb, db, fb.LargeAnswerQuery)
}

// evalLarge answers query over db, and fails unless the answer is large.
func evalLarge(tb testing.TB, db *engine.Database, query string) disclosure.Answer {
	tb.Helper()
	ans, err := db.EvalCanonicalAt(db.Snapshot(), disclosure.PrepareQuery(disclosure.MustParse(query)))
	if err != nil || ans.Len() < 300 {
		tb.Fatalf("%s has %d rows (err %v), want ≥ 300", query, ans.Len(), err)
	}
	return ans
}

// coldAnswers returns the friend-scoped answers of the cold benchmark: for
// each content relation of the 2000-user facebook preset, a join with
// Me's friend list whose head is every variable but is_friend, in each
// rotation of that list and of its reverse — 78 answers of 640 or 1,280
// rows, whose cells are most of the dictionary's strings — over each of
// coldCopies databases of the graph, each with a dictionary of its own.
func coldAnswers(tb testing.TB) []disclosure.Answer {
	tb.Helper()
	var out []disclosure.Answer
	for range coldCopies {
		db := engine.NewDatabase(fb.Schema())
		if err := fb.GenerateGraph(db, 2000, 2013); err != nil {
			tb.Fatal(err)
		}
		out = append(out, friendAnswers(tb, db)...)
	}
	return out
}

// coldCopies is how many copies of the graph coldAnswers reads: enough
// that the slots and ids its answers read outgrow a 2 MiB L2 cache.
const coldCopies = 8

// friendAnswers returns coldAnswers' 78 answers over one database.
func friendAnswers(tb testing.TB, db *engine.Database) []disclosure.Answer {
	tb.Helper()
	var out []disclosure.Answer
	for _, rel := range fb.Schema().Relations() {
		attrs := rel.Attrs()
		if attrs[len(attrs)-1] != "is_friend" || rel.Name() == "user" {
			continue
		}
		args := append(slices.Clone(attrs[:len(attrs)-1]), "'1'")
		body := fmt.Sprintf("friend('me', uid, since), %s(%s)", rel.Name(), strings.Join(args, ", "))
		vars := append(slices.Clone(attrs[:len(attrs)-1]), "since")
		rev := slices.Clone(vars)
		slices.Reverse(rev)
		for _, order := range [][]string{vars, rev} {
			for r := range order {
				head := append(slices.Clone(order[r:]), order[:r]...)
				out = append(out, evalLarge(tb, db, fmt.Sprintf("Q(%s) :- %s", strings.Join(head, ", "), body)))
			}
		}
	}
	return out
}

// contiguousAnswer is largeAnswer over a database that interned the
// answer's strings first, in row order, before the graph: the same bytes,
// read from consecutive dictionary slots.
func contiguousAnswer(tb testing.TB) disclosure.Answer {
	tb.Helper()
	large := largeAnswer(tb)
	rows := large.Rows()
	db := engine.NewDatabase(schema.MustNew(append(fb.Schema().Relations(), schema.MustRelation("seq", "v"))...))
	err := db.Load(func(ld *engine.Loader) error {
		for _, row := range rows {
			for _, v := range row {
				ld.MustInsert("seq", v)
			}
		}
		return nil
	})
	if err == nil {
		err = fb.GenerateGraph(db, 2000, 2013)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return evalLarge(tb, db, fb.LargeAnswerQuery)
}

// BenchmarkSubmitResponseEncode puts one ≈ 640-row answer through
// appendSubmitResponse, as the handler does, and through encoding/json's
// reflection over the wire value, rows copy included (information, not a
// gate). ns/row is the time per answer row, comparable across answer sizes.
//
// Two more cells ask where append's time goes. cold encodes a different
// answer each time (coldAnswers), over eight dictionaries, so the slots a
// row reads are seldom in the nearest caches, as on a daemon that serves
// many templates. contiguous encodes the answer of append whose strings
// sit in row order in the dictionary (contiguousAnswer), so consecutive
// cells read consecutive slots. Rows of cold are wider than append's, so
// ns/cell compares them: near append, either one says that encoding in
// this process waits on instructions rather than on the slots' memory.
func BenchmarkSubmitResponseEncode(b *testing.B) {
	qs := []*disclosure.Prepared{{Name: "Q"}}
	admit := func(ans disclosure.Answer) []disclosure.BatchResult {
		return []disclosure.BatchResult{{
			Decision: disclosure.Decision{Allowed: true, Live: []string{"P0"}},
			Answer:   ans,
		}}
	}
	results := admit(largeAnswer(b))
	// appendAll encodes results in turn, b.N of them.
	appendAll := func(b *testing.B, results ...[]disclosure.BatchResult) {
		var buf []byte
		rows, cells := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := results[i%len(results)]
			buf = appendSubmitResponse(buf[:0], "app-0", qs, res)
			rows += res[0].Answer.Len()
			cells += res[0].Answer.Len() * res[0].Answer.Width()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
	}
	b.Run("append", func(b *testing.B) {
		appendAll(b, results)
	})
	b.Run("cold", func(b *testing.B) {
		var cold [][]disclosure.BatchResult
		for _, ans := range coldAnswers(b) {
			cold = append(cold, admit(ans))
		}
		appendAll(b, cold...)
	})
	b.Run("contiguous", func(b *testing.B) {
		appendAll(b, admit(contiguousAnswer(b)))
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
		reportPerRow(b, results[0].Answer.Len())
	})
}

// reportPerRow reports a benchmark's time per answer row, for b.N answers
// of rows rows each.
func reportPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
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
func startCountingServer(t *testing.T, pad int) (*connCounter, string, *Server) {
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
	return &cc, "http://" + l.Addr().String(), srv
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
	cc, base, _ := startCountingServer(t, 400)
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

// chunkRecorder is a ResponseRecorder that counts the Writes it is handed.
type chunkRecorder struct {
	*httptest.ResponseRecorder
	writes int
}

func (r *chunkRecorder) Write(p []byte) (int, error) {
	r.writes++
	return r.ResponseRecorder.Write(p)
}

// TestSubmitLengthDelimited: a submit response announces its exact length
// and is not chunk-framed, whatever its size — a few bytes, tens of
// kilobytes in one Write, or several chunks of plain values and of values
// the encoder must escape — its body is byte for byte the one
// appendSubmitResponse gives in one buffer, the response-bytes metric
// counts it, and the connection stays reusable. A response written in
// chunks leaves its buffer no larger than a chunk and the framing room.
func TestSubmitLengthDelimited(t *testing.T) {
	cc, base, srv := startCountingServer(t, 400)
	err := srv.System().LoadBatch(func(ld *disclosure.Loader) error {
		for i := 0; i < 1200; i++ {
			ld.MustInsert("Meetings", fmt.Sprintf("huge-%04d-%s", i, strings.Repeat("y", 200)), "Huge")
			ld.MustInsert("Meetings", fmt.Sprintf(`esc-%04d <b>"&"</b> \ é%s`, i, strings.Repeat("\u2028", 10+i%9)), "Esc")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hc := oneConnClient()
	admin := &Client{BaseURL: base, Token: "admin-tok", HTTP: hc}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"all": {"V1", "V2", "V3"}}); err != nil {
		t.Fatal(err)
	}
	read := 0
	for _, tc := range []struct {
		src    string
		chunks int // the fewest full chunks the body spans
	}{
		{"Large(t) :- Meetings(t, 'Pad')", 0},
		{"Small(t) :- Meetings(t, 'Cathy')", 0},
		{"Huge(t) :- Meetings(t, 'Huge')", 3},
		{"Esc(t) :- Meetings(t, 'Esc')", 2},
		{"Large(t) :- Meetings(t, 'Pad')", 0},
	} {
		resp, body := rawSubmit(t, hc, base, "app-tok", tc.src)
		read += len(body)
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v, want none", tc.src, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d for a %d-byte body", tc.src, resp.ContentLength, len(body))
		}
		if tc.src != "Small(t) :- Meetings(t, 'Cathy')" && len(body) < max(tc.chunks*respChunk, 16<<10) {
			t.Errorf("%s: the answer is only %d bytes, want ≥ %d chunks and ≥ 16 KB", tc.src, len(body), tc.chunks)
		}
		p, err := srv.System().Prepare([]byte(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		ps := []*disclosure.Prepared{p}
		results := srv.System().SubmitPrepared("app", ps)
		want := appendSubmitResponse(nil, "app", ps, results)
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: the %d bytes served differ from the %d appendSubmitResponse gives in one buffer", tc.src, len(body), len(want))
		}

		// The same response encoded into a fresh buffer of the handler's.
		rec := &chunkRecorder{ResponseRecorder: httptest.NewRecorder()}
		var buf []byte
		_, _ = rec.Write(encodeSubmitResponse(rec, &buf, "app", ps, results))
		if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
			t.Fatalf("%s: encodeSubmitResponse wrote %d bytes under Content-Length %s, want %d", tc.src, rec.Body.Len(), rec.Header().Get("Content-Length"), len(want))
		}
		if writes := rec.writes; (tc.chunks == 0 && writes != 1) || writes <= tc.chunks {
			t.Errorf("%s: %d bytes in %d writes, want one write for up to a chunk and one a chunk beyond", tc.src, len(want), writes)
		}
		// Every row here is narrower than the framing room, so the buffer
		// never grows past its first sizing.
		if bound := respChunk + respFraming; tc.chunks > 0 && cap(buf) > bound {
			t.Errorf("%s: a chunked response grew its buffer to %d bytes, over a chunk and the framing (%d)", tc.src, cap(buf), bound)
		}
	}
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("the server accepted %d connections, want 1", n)
	}
	if got := metricsText(t, hc, base); !strings.Contains(got, fmt.Sprintf("disclosure_http_response_bytes_total{route=\"POST /v1/submit\"} %d\n", read)) {
		t.Errorf("the response-bytes metric does not count the %d bytes read", read)
	}
}

// metricsText returns the server's /metrics exposition, fetched through hc:
// over the connection of the requests before it, the exposition counts
// everything they wrote.
func metricsText(t *testing.T, hc *http.Client, base string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer admin-tok")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exposition bytes.Buffer
	if _, err := exposition.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return exposition.String()
}

// TestResponseBytesMetric: disclosure_http_response_bytes_total counts, per
// route, exactly the body bytes clients read — the server-side twin of the
// benchmark's client-side server.resp_bytes_per_op — and the first sorted
// answer shows up as an executed evaluation on the engine's answer-path
// counter.
func TestResponseBytesMetric(t *testing.T) {
	_, base, _ := startCountingServer(t, 50)
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"all": {"V1", "V2", "V3"}}); err != nil {
		t.Fatal(err)
	}
	var read int
	for _, q := range []string{"Large(t) :- Meetings(t, 'Pad')", "Small(t) :- Meetings(t, 'Cathy')", "Walled(p, e) :- Contacts(p, e, r), Meetings(t, p)"} {
		_, body := rawSubmit(t, http.DefaultClient, base, "app-tok", q)
		read += len(body)
	}
	exposition := metricsText(t, http.DefaultClient, base)
	want := fmt.Sprintf("disclosure_http_response_bytes_total{route=\"POST /v1/submit\"} %d\n", read)
	if !strings.Contains(exposition, want) {
		t.Errorf("/metrics lacks %q", want)
	}
	for _, family := range []string{
		"# TYPE disclosure_http_response_bytes_total counter",
		"# TYPE disclosure_engine_answers_total counter",
		"disclosure_http_response_bytes_total{route=\"PUT /v1/policy/{principal}\"} ",
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("/metrics lacks %q", family)
		}
	}
	if !strings.Contains(exposition, "disclosure_engine_answers_total{path=\"executed\"} ") ||
		strings.Contains(exposition, "disclosure_engine_answers_total{path=\"executed\"} 0\n") {
		t.Error("a sorted answer left no executed evaluation on disclosure_engine_answers_total")
	}
}
