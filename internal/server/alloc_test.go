//go:build !race

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/wire"
)

// replayBody is a request body that can be rewound, so the measured loop
// constructs nothing.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps one header map and drops the
// body, or with keep set holds on to the last one.
type discardWriter struct {
	h      http.Header
	status int
	keep   bool
	body   []byte
}

func (w *discardWriter) Header() http.Header    { return w.h }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.body = append(w.body[:0], p...)
	}
	return len(p), nil
}

// warmSubmit returns a function that puts one submission of src by app-tok's
// principal through h, constructing nothing per call, already run three
// times (first sighting, admission to the query memo, hit), and the writer
// it answers into.
func warmSubmit(t *testing.T, h http.Handler, src string) (func(), *discardWriter) {
	t.Helper()
	payload, _ := json.Marshal(SubmitRequest{Query: src})
	body := &replayBody{}
	req, err := http.NewRequest(http.MethodPost, "/v1/submit", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer app-tok")
	w := &discardWriter{h: make(http.Header)}
	run := func() {
		body.Reset(payload)
		req.Body = body
		w.status = 0
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if w.status != http.StatusOK {
		t.Fatalf("%s: status %d", src, w.status)
	}
	return run, w
}

// TestWarmSubmitAllocs gates what the serving layer allocates for one warm
// submission — text memoized, label and plan cached: the handler, from the
// metrics middleware to the response write, request construction excluded.
// The front half no longer parses, canonicalizes or reflects, so the count
// does not grow with the query's atoms, and sits well under what the same
// harness measured before the query memo and the scanning decoder (33 for
// an admit, 37 for a refusal, 44 for a five-atom admit). An admit measures
// 8 and a refusal 13: the answer is one block of ids, and the pipeline
// labels and evaluates a query on its own, with no per-batch slices. The
// file is excluded under -race because the race runtime allocates on its
// own.
func TestWarmSubmitAllocs(t *testing.T) {
	srv, _ := startServer(t, Options{})
	if err := srv.System().SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.System().SetToken("app", "app-tok"); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	measure := func(src string, wantAllowed bool) float64 {
		t.Helper()
		run, _ := warmSubmit(t, h, src)
		if res, err := srv.System().ExplainDecision("app", mustParse(t, src)); err != nil || res.Admissible != wantAllowed {
			t.Fatalf("%s: admissible=%v err=%v, want %v", src, res.Admissible, err, wantAllowed)
		}
		return testing.AllocsPerRun(200, run)
	}
	admit := measure("Q(t) :- Meetings(t, p)", true)
	refuse := measure("P(p, e) :- Contacts(p, e, r)", false)
	admit5 := measure("Q(t) :- Meetings(t, p), Meetings(t, p2), Meetings(t2, p), Meetings(t2, p3), Meetings(t3, p3)", true)
	t.Logf("warm submission: %.0f allocs admitted, %.0f refused, %.0f admitted with five atoms", admit, refuse, admit5)
	if admit5 != admit {
		t.Errorf("a five-atom admit allocates %.0f, a one-atom admit %.0f: the warm path must not depend on the query's size", admit5, admit)
	}
	if admit > 10 {
		t.Errorf("an admitted warm submission allocates %.0f, want ≤ 10", admit)
	}
	if refuse > 15 {
		t.Errorf("a refused warm submission allocates %.0f, want ≤ 15", refuse)
	}
}

// TestAdmittedAnswerAllocs gates the admitted-answer path on both sides of
// the socket. The handler serving fb.LargeAnswerQuery allocates the same
// small number of objects over a 300-user graph and over a 2000-user one —
// the answer is one block of ids, written to a pooled buffer, whatever its
// rows — and the client's decoder turns that body into rows in a handful:
// the body's string, the results, one []string and one [][]string.
func TestAdmittedAnswerAllocs(t *testing.T) {
	views, err := fb.SecurityViews(fb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	all := make([]string, len(views))
	for i, v := range views {
		all[i] = v.Name
	}
	var allocs [2]float64
	for i, users := range []int{300, 2000} {
		sys, err := disclosure.NewSystem(fb.Schema(), views...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadBatch(func(ld *disclosure.Loader) error { return fb.GenerateGraph(ld, users, 2013) }); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetPolicy("app", map[string][]string{"all": all}); err != nil {
			t.Fatal(err)
		}
		srv, err := New(sys, Options{AdminToken: "admin-tok", Tokens: map[string]string{"app": "app-tok"}})
		if err != nil {
			t.Fatal(err)
		}
		run, w := warmSubmit(t, srv.Handler(), fb.LargeAnswerQuery)
		allocs[i] = testing.AllocsPerRun(100, run)
		w.keep = true
		run()
		resp, err := decodeSubmitResponse(string(w.body), 1)
		if err != nil || len(resp.Results) != 1 || !resp.Results[0].Allowed || len(resp.Results[0].Rows) < users/10 {
			t.Fatalf("%d users: the large answer decodes to %+v (err %v)", users, resp.Results, err)
		}
		decode := testing.AllocsPerRun(100, func() { _, _ = decodeSubmitResponse(string(w.body), 1) })
		t.Logf("%d users: %d rows in %d bytes, the handler allocates %.0f, the client's decoder %.0f", users, len(resp.Results[0].Rows), len(w.body), allocs[i], decode)
		if decode > 8 {
			t.Errorf("%d users: decoding the answer allocates %.0f, want ≤ 8", users, decode)
		}
	}
	if allocs[0] != allocs[1] || allocs[1] > 16 {
		t.Errorf("the handler allocates %.0f for the 300-user answer and %.0f for the 2000-user one, want the same and ≤ 16", allocs[0], allocs[1])
	}
}

// TestRefusalDecodeAllocs gates the client's half of a refused submission:
// the response bodies of the all-views policy's ⊤ refusal and of the
// three-partition wall's (refusalBodies) decode in five allocations — the
// body's string, the results, the cell backing, the refusal and its
// partitions — where encoding/json's reflection took 60 and 77 on these
// bodies. (Six while the scanner also made a rows backing that a refusal
// never fills.) The refusal's explanation alone, as GET /v1/explain sends
// it, decodes in its string, cells and partitions.
func TestRefusalDecodeAllocs(t *testing.T) {
	allViews, wall := refusalBodies(t)
	for _, c := range []struct{ name, body string }{{"all-views", allViews}, {"wall", wall}} {
		buf := []byte(c.body)
		var want SubmitResponse
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatal(err)
		}
		if got, err := decodeSubmitResponse(string(buf), 1); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the refusal decodes to %+v (err %v), encoding/json to %+v", c.name, got, err, want)
		}
		decode := testing.AllocsPerRun(100, func() { _, _ = decodeSubmitResponse(string(buf), 1) })
		explain := append(wire.AppendExplanation(nil, want.Results[0].Refusal), '\n')
		explainAllocs := testing.AllocsPerRun(100, func() { _, _ = decodeExplanation(string(explain)) })
		t.Logf("%s: a %d-byte refusal body decodes in %.0f allocations, its %d-byte explanation in %.0f", c.name, len(buf), decode, len(explain), explainAllocs)
		if decode > 5 {
			t.Errorf("%s: decoding the refusal allocates %.0f, want ≤ 5", c.name, decode)
		}
		if explainAllocs > 3 {
			t.Errorf("%s: decoding the explanation allocates %.0f, want ≤ 3", c.name, explainAllocs)
		}
	}
}
