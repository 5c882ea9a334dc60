//go:build !race

package repl

import (
	"bytes"
	"net"
	"net/http"
	"strconv"
	"testing"

	disclosure "repro"
	"repro/internal/policy"
)

// cannedPrimary answers every request on every connection with reply,
// allocating nothing per request, and returns its base URL.
func cannedPrimary(t *testing.T, reply []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go serveCanned(c, reply)
		}
	}()
	return "http://" + l.Addr().String()
}

var (
	headEnd       = []byte("\r\n\r\n")
	contentLength = []byte("\r\nContent-Length: ")
)

// serveCanned reads each request on c — its head, then as many body bytes
// as the head's Content-Length says — and answers it with reply.
func serveCanned(c net.Conn, reply []byte) {
	defer c.Close()
	buf := make([]byte, 0, 4096)
	for {
		for {
			if end := bytes.Index(buf, headEnd); end >= 0 {
				n, i := 0, bytes.Index(buf[:end], contentLength)+len(contentLength)
				for ; buf[i] >= '0' && buf[i] <= '9'; i++ {
					n = 10*n + int(buf[i]-'0')
				}
				if whole := end + len(headEnd) + n; len(buf) >= whole {
					buf = buf[:copy(buf, buf[whole:])]
					break
				}
			}
			k, err := c.Read(buf[len(buf):cap(buf)])
			if err != nil {
				return
			}
			buf = buf[:len(buf)+k]
		}
		if _, err := c.Write(reply); err != nil {
			return
		}
	}
}

// TestDecideRPCAllocs gates what the follower allocates for one admitted
// decision RPC on a pooled connection: the request appended and written,
// the reply read by http.ReadResponse and scanned. The primary is a canned
// responder that allocates nothing, so the count is the follower's alone.
// The RPC measures 12: the fingerprint's hex, what http.ReadResponse
// builds (the response, its status line, header map and values, body
// reader) and the live list's one string and its slice. Through
// http.Client and encoding/json the same RPC allocated 86. The file is
// excluded under -race because the race runtime allocates on its own.
func TestDecideRPCAllocs(t *testing.T) {
	body := appendDecideResponse(nil, &DecideResponse{Allowed: true, Live: []string{"W1", "W2"}})
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + string(body))
	_, dec, err := parsePrimary(cannedPrimary(t, reply), "admin", &http.Client{})
	if err != nil {
		t.Fatal(err)
	}
	f := &Follower{dec: dec}
	p := disclosure.PrepareQuery(qm)
	p.Src = "QM(t) :- M(t, p)"
	allocs := testing.AllocsPerRun(200, func() {
		if d, err := f.decideRPC("app", p); err != nil || !d.Allowed || len(d.Live) != 2 {
			t.Fatalf("decideRPC = (%+v, %v), want admitted with two live partitions", d, err)
		}
	})
	t.Logf("one admitted decision RPC: %.1f allocations", allocs)
	if allocs > 12 {
		t.Fatalf("one admitted decision RPC allocates %.1f, want at most 12", allocs)
	}
}

// TestRefusalReplyAllocs: the primary appends a refusal's reply into its
// pooled buffer without allocating — the Explanation is appended field by
// field, not marshaled.
func TestRefusalReplyAllocs(t *testing.T) {
	resp := DecideResponse{Live: []string{"W2"}, Refusal: &disclosure.Explanation{
		Query:      "QM",
		Label:      "{M} ⊗ {C}",
		Cumulative: "{C}",
		Partitions: []policy.PartitionStatus{
			{Name: "W1", Views: []string{"M"}},
			{Name: "W2", Views: []string{"C"}, Live: true, Dominates: true},
		},
	}}
	buf := appendDecideResponse(nil, &resp)
	allocs := testing.AllocsPerRun(100, func() { buf = appendDecideResponse(buf[:0], &resp) })
	if allocs != 0 {
		t.Fatalf("appending a refusal's reply into a grown buffer allocates %.1f, want 0", allocs)
	}
}
