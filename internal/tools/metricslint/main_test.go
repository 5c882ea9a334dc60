package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	disclosure "repro"
	"repro/internal/server"
)

// valid is an exposition that keeps every rule: a counter, a gauge and a
// labeled histogram series.
const valid = `# HELP req_total Requests.
# TYPE req_total counter
req_total{route="a"} 3
req_total{route="b"} 1
# HELP up Whether the server is up.
# TYPE up gauge
up 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{route="a",le="0.1"} 1
lat_seconds_bucket{route="a",le="1"} 2
lat_seconds_bucket{route="a",le="+Inf"} 3
lat_seconds_sum{route="a"} 2.5
lat_seconds_count{route="a"} 3
`

func TestLintAcceptsValid(t *testing.T) {
	if problems := lint(strings.NewReader(valid)); len(problems) != 0 {
		t.Fatalf("problems in a valid exposition: %v", problems)
	}
}

// TestLintRules breaks each rule of the package comment once and wants the
// problem it names.
func TestLintRules(t *testing.T) {
	for _, tc := range []struct{ name, old, new, want string }{
		{"family name grammar", "# TYPE up gauge", "# TYPE 1up gauge", `invalid family name "1up"`},
		{"metric name grammar", "up 1", "u-p 1", `invalid metric name "u-p"`},
		{"sample without TYPE", "# TYPE up gauge\n", "", "sample up has no preceding # TYPE"},
		{"sample without HELP", "# HELP up Whether the server is up.\n", "", "sample up has no preceding # HELP"},
		{"HELP announced twice", "# TYPE up gauge", "# HELP up Again.\n# TYPE up gauge", "duplicate HELP for up"},
		{"TYPE announced twice", "# TYPE up gauge", "# TYPE up gauge\n# TYPE up gauge", "duplicate TYPE for up"},
		{"unknown type", "# TYPE up gauge", "# TYPE up meter", `unknown type "meter"`},
		{"counter without _total", "# TYPE up gauge", "# TYPE up counter", "counter up does not end in _total"},
		{"unparsable value", "up 1", "up one", `unparsable value "one"`},
		{"series twice", "up 1", "up 1\nup 2", "duplicate series up{}"},
		{"unparsable le", `le="0.1"`, `le="x"`, `unparsable le "x"`},
		{"bucket without le", `lat_seconds_bucket{route="a",le="0.1"}`, `lat_seconds_bucket{route="a"}`, "has no le label"},
		{"buckets decrease", `le="1"} 2`, `le="1"} 0`, "cumulative bucket 0 < previous 1"},
		{"le out of order", `le="1"} 2`, `le="0.05"} 2`, "le 0.05 out of order"},
		{"no +Inf bucket", "lat_seconds_bucket{route=\"a\",le=\"+Inf\"} 3\n", "", `has no le="+Inf" bucket`},
		{"_count differs from +Inf", `lat_seconds_count{route="a"} 3`, `lat_seconds_count{route="a"} 4`, "_count 4 != +Inf bucket 3"},
		{"no _count", "lat_seconds_count{route=\"a\"} 3\n", "", "has no _count"},
		{"no _sum", "lat_seconds_sum{route=\"a\"} 2.5\n", "", "has no _sum"},
		{"empty exposition", valid, "", "empty exposition"},
	} {
		src := strings.Replace(valid, tc.old, tc.new, 1)
		problems := lint(strings.NewReader(src))
		if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
			t.Errorf("%s: problems %q, want one containing %q", tc.name, problems, tc.want)
		}
	}
}

// TestLintServerScrape lints what GET /metrics serves from a server's own
// registry after a policy install, an admitted and a refused submission.
func TestLintServerScrape(t *testing.T) {
	sys, err := disclosure.NewSystem(
		disclosure.MustSchema(disclosure.MustRelation("Meetings", "time", "person")),
		disclosure.MustParse("V1(t, p) :- Meetings(t, p)"),
		disclosure.MustParse("V2(t) :- Meetings(t, p)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(sys, server.Options{AdminToken: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	admin := &server.Client{BaseURL: ts.URL, Token: "admin"}
	if err := admin.SetPolicy("app", "app-tok", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	app := &server.Client{BaseURL: ts.URL, Token: "app-tok"}
	for _, q := range []string{"Q(t) :- Meetings(t, p)", "Q(p) :- Meetings(t, p)"} {
		if _, err := app.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer admin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s, %v", resp.Status, err)
	}
	for _, typ := range []string{"counter", "gauge", "histogram"} {
		if !strings.Contains(string(body), " "+typ+"\n") {
			t.Errorf("the exposition has no %s family", typ)
		}
	}
	if problems := lint(bytes.NewReader(body)); len(problems) != 0 {
		t.Errorf("the server's exposition breaks %d rules:\n%s", len(problems), strings.Join(problems, "\n"))
	}
}
