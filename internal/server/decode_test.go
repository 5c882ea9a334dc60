package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/workload"
)

// FuzzSubmitRequestDecode is the compatibility proof of the submit decoder:
// on any body it accepts and rejects exactly what encoding/json's Decoder
// (unknown fields disallowed) does for a SubmitRequest, with the same error
// text and the same decoded value.
func FuzzSubmitRequestDecode(f *testing.F) {
	for _, s := range []string{
		`{"query":"Q(t) :- Meetings(t, p)"}`,
		`{"queries":["Q(t) :- Meetings(t, p)","P(p, e) :- Contacts(p, e, 'Intern')"]}`,
		" {\t\"query\" :\r\n \"Q(x) :- R(x)\" } \n",
		`{ "queries" : [ "a" , "b" ] }`,
		`{"query":"escaped \" quote and \\ backslash and \u0041"}`,
		"{\"query\":\"nul \\u0000 and sep \\u2028 and raw \u2028 and é\"}",
		`{"query":"<html> & co"}`,
		"{\"query\":\"raw control \x01\"}",
		"{\"query\":\"bad utf-8 \xff\"}",
		`{"Query":"upper-case key"}`, `{"QUERIES":["x"]}`,
		`{"query":"a","query":"b"}`, `{"query":"a","queries":["b"]}`,
		`{"query":"a","extra":1}`, `{"nope":"a"}`,
		`{"query":null}`, `{"queries":null}`, `{"queries":[]}`, `{"queries":[null]}`, `{"queries":["a",]}`,
		`{"query":""}`, `{"query":7}`, `{"queries":"a"}`, `{"queries":["a" "b"]}`,
		`null`, `{}`, `[]`, `"query"`, `7`, ``, ` `,
		`{"query":"a"} trailing`, `{"query":"a"}{"query":"b"}`, `{"query":"a"},`,
		`{"query":"truncated`, `{"query":`, `{"queries":["a"`, `{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		got, gotErr := decodeSubmitRequest(body)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("body %q: decodeSubmitRequest err = %v, encoding/json err = %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if string(got.query) != want.Query || len(got.queries) != len(want.Queries) || (got.queries == nil) != (want.Queries == nil) {
			t.Fatalf("body %q: decoded (%q, %q), encoding/json (%q, %q)", body, got.query, got.queries, want.Query, want.Queries)
		}
		for i := range want.Queries {
			if string(got.queries[i]) != want.Queries[i] {
				t.Fatalf("body %q: queries[%d] = %q, encoding/json %q", body, i, got.queries[i], want.Queries[i])
			}
		}
	})
}

// TestSubmitDecoderTakesThePlainShapes: what the load generator and the
// Client send is scanned, not reflected over, and the scanned texts are
// views of the body.
func TestSubmitDecoderTakesThePlainShapes(t *testing.T) {
	single, _ := json.Marshal(SubmitRequest{Query: "Q(t) :- Meetings(t, 'Cathy')"})
	batch, _ := json.Marshal(SubmitRequest{Queries: []string{"Q(t) :- Meetings(t, p)", "P(p) :- Contacts(p, e, r)"}})
	for _, body := range [][]byte{single, batch, []byte(" { \"query\" : \"Q(x) :- R(x)\" } \r\n")} {
		req, ok := scanSubmitRequest(body)
		if !ok {
			t.Errorf("%s went to encoding/json", body)
			continue
		}
		for _, q := range append(req.queries, req.query) {
			if len(q) > 0 && !bytes.Contains(body, q) {
				t.Errorf("%s: decoded text %q is not in the body", body, q)
			}
		}
	}
	if _, ok := scanSubmitRequest([]byte(`{"query":"arrow :− and ∧"}`)); ok {
		t.Error("a non-ASCII text was scanned; it is encoding/json's to validate")
	}
}

// fbServer serves the facebook preset under a policy with every view in one
// partition, without a listener: requests go straight to the handler.
func fbServer(t testing.TB) (*Server, http.Handler) {
	t.Helper()
	views, err := fb.SecurityViews(fb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := disclosure.NewSystem(fb.Schema(), views...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadBatch(func(ld *disclosure.Loader) error { return fb.GenerateGraph(ld, 60, 2013) }); err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Options{AdminToken: "admin-tok", Tokens: map[string]string{"app": "app-tok"}})
	if err != nil {
		t.Fatal(err)
	}
	installAll(t, sys)
	return srv, srv.Handler()
}

// installAll (re-)installs the one-partition policy: the session restarts.
func installAll(t testing.TB, sys *disclosure.System) {
	t.Helper()
	var names []string
	for _, v := range sys.Catalog().Views() {
		names = append(names, v.Name)
	}
	if err := sys.SetPolicy("app", map[string][]string{"all": names}); err != nil {
		t.Fatal(err)
	}
}

// post submits one query text to the handler and returns status and body.
func post(t testing.TB, h http.Handler, src string) (int, string) {
	t.Helper()
	body, _ := json.Marshal(SubmitRequest{Query: src})
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer app-tok")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestMemoDifferential: 2000 generated templates go through one server
// three times — first sighting, admission into the query memo, hit — with
// the session restarted between rounds, and once through a fresh server
// that parses every one of them. All four answers to a template are the
// same bytes: the memo changes what a submission costs, never what it says.
func TestMemoDifferential(t *testing.T) {
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 7, MaxSubqueries: 3, FriendScopesMarkIsFriend: true})
	srcs := make([]string, 2000)
	for i := range srcs {
		srcs[i] = g.Next().String()
	}
	_, fresh := fbServer(t)
	want := make([]string, len(srcs))
	for i, src := range srcs {
		code, body := post(t, fresh, src)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", src, code, body)
		}
		want[i] = body
	}
	srv, h := fbServer(t)
	for round := 1; round <= 3; round++ {
		installAll(t, srv.System())
		for i, src := range srcs {
			if code, body := post(t, h, src); code != http.StatusOK || body != want[i] {
				t.Fatalf("round %d, %s:\n got %d %s\nwant 200 %s", round, src, code, body, want[i])
			}
		}
	}
	distinct := make(map[string]bool)
	for _, src := range srcs {
		distinct[src] = true
	}
	// A handful of texts that crowd one bucket of the first-sighting table
	// take another round to be admitted.
	st := srv.System().Stats().Memo
	if floor := len(distinct) * 99 / 100; st.Hits < uint64(floor) || st.Entries < floor || st.Entries > len(distinct) {
		t.Errorf("after three rounds of %d texts (%d distinct): %s, want ≥ 99%% of them resident and hit in round three", len(srcs), len(distinct), st)
	}
}

// TestSubmitFrontMetrics: a submit request leaves one observation in the
// prepare and encode stages, the memo's counters are exposed beside the
// label cache's, and /v1/stats carries the same numbers.
func TestSubmitFrontMetrics(t *testing.T) {
	srv, base := startServer(t, Options{})
	admin := &Client{BaseURL: base, Token: "admin-tok"}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	app := &Client{BaseURL: base, Token: "app-tok"}
	stageCount := func(stage string) float64 {
		t.Helper()
		return metricValue(t, base, fmt.Sprintf("disclosure_submit_stage_seconds_count{stage=%q}", stage))
	}
	prepare, encode := stageCount("prepare"), stageCount("encode")
	for i := 0; i < 3; i++ {
		if _, err := app.Submit("Q(t) :- Meetings(t, p)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := app.SubmitBatch([]string{"Q(t) :- Meetings(t, p)", "P(p, e) :- Contacts(p, e, r)"}); err != nil {
		t.Fatal(err)
	}
	if got := stageCount("prepare") - prepare; got != 4 {
		t.Errorf("4 submit requests left %v prepare observations", got)
	}
	if got := stageCount("encode") - encode; got != 4 {
		t.Errorf("4 submit requests left %v encode observations", got)
	}
	// Sightings 3 and 4 of the single text hit; the batch's other text missed.
	st := srv.System().Stats().Memo
	if st.Hits != 2 || st.Misses != 3 || st.Entries != 1 {
		t.Errorf("memo after 4 sightings of one text and 1 of another: %s", st)
	}
	if got := metricValue(t, base, "disclosure_query_memo_hits_total"); got != 2 {
		t.Errorf("disclosure_query_memo_hits_total = %v, want 2", got)
	}
	if got := metricValue(t, base, "disclosure_query_memo_misses_total"); got != 3 {
		t.Errorf("disclosure_query_memo_misses_total = %v, want 3", got)
	}
	if got := metricValue(t, base, "disclosure_query_memo_evictions_total"); got != 0 {
		t.Errorf("disclosure_query_memo_evictions_total = %v, want 0", got)
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil || stats.Memo.Hits != 2 || stats.Memo.Misses != 3 {
		t.Errorf("/v1/stats query_memo = %+v (err %v), want 2 hits and 3 misses", stats.Memo, err)
	}
}

// metricValue scrapes /metrics and returns the value of one series.
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
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
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// mustParse parses a query text or fails the test.
func mustParse(t testing.TB, src string) *disclosure.Query {
	t.Helper()
	q, err := disclosure.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
