//go:build !race

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// replayBody is a request body that can be rewound, so the measured loop
// constructs nothing.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps one header map and drops the
// body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWarmSubmitAllocs gates what the serving layer allocates for one warm
// submission — text memoized, label and plan cached: the handler, from the
// metrics middleware to the response write, request construction excluded.
// The front half no longer parses, canonicalizes or reflects, so the count
// does not grow with the query's atoms, and sits well under what the same
// harness measured before the query memo and the scanning decoder (33 for
// an admit, 37 for a refusal, 44 for a five-atom admit). The file is
// excluded under -race because the race runtime allocates on its own.
func TestWarmSubmitAllocs(t *testing.T) {
	srv, _ := startServer(t, Options{})
	if err := srv.System().SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	err := srv.installTokenLocked("app", "app-tok")
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	measure := func(src string, wantAllowed bool) float64 {
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
		for i := 0; i < 3; i++ { // first sighting, admission, hit
			run()
		}
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", src, w.status)
		}
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
	if admit > 33-12 {
		t.Errorf("an admitted warm submission allocates %.0f, want ≤ %d", admit, 33-12)
	}
	if refuse > 37-12 {
		t.Errorf("a refused warm submission allocates %.0f, want ≤ %d", refuse, 37-12)
	}
}
