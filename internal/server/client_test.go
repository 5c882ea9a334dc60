package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wire"
)

// errorBody is a 500 reply's body: one JSON object whose error string runs
// to size bytes, produced as it is read, counting what was read.
type errorBody struct {
	size, read int
}

func (b *errorBody) Read(p []byte) (int, error) {
	const head, tail = `{"error":"`, `"}`
	if b.read == b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.read)
	for i := range p[:n] {
		switch off := b.read + i; {
		case off < len(head):
			p[i] = head[off]
		case off >= b.size-len(tail):
			p[i] = tail[off-(b.size-len(tail))]
		default:
			p[i] = 'x'
		}
	}
	b.read += n
	return n, nil
}

func (*errorBody) Close() error { return nil }

// errorTransport answers every request with a 500 carrying body.
type errorTransport struct{ body *errorBody }

func (t errorTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusInternalServerError,
		Status:     "500 Internal Server Error",
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       t.body,
		Request:    req,
	}, nil
}

// TestClientErrorBodyBounded: a peer that answers a submit with a huge
// error body costs the client the error bound plus the drain bound, not the
// body. The message is past the bound, so the error carries the status.
func TestClientErrorBodyBounded(t *testing.T) {
	body := &errorBody{size: 64 << 20}
	c := &Client{BaseURL: "http://disclosured.test", Token: "tok", HTTP: &http.Client{Transport: errorTransport{body}}}
	_, err := c.Submit("Q(x) :- R(x)")
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("Submit = %v, want the 500", err)
	}
	if limit := wire.ErrorBodyLimit + drainLimit; body.read > limit {
		t.Fatalf("Submit read %d bytes of a %d-byte error body, want at most %d", body.read, body.size, limit)
	}
}
