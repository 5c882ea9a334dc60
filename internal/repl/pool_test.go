package repl

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disclosure "repro"
)

// countingListener counts the connections a test primary accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// qm is a query the test primary's principal may always ask.
var qm = disclosure.MustParse("QM(t) :- M(t, p)")

// decidePrimary starts a primary whose principal "app" may ask qm, its
// handler wrapped by wrap, on a listener that counts connections. tls
// serves it over https.
func decidePrimary(t *testing.T, tls bool, wrap func(http.Handler) http.Handler) (*disclosure.Durable, *httptest.Server, *countingListener) {
	t.Helper()
	s := disclosure.MustSchema(disclosure.MustRelation("M", "time", "person"))
	d, err := disclosure.OpenDurable(t.TempDir(), disclosure.DurabilityOptions{NoSync: true}, s,
		disclosure.MustParse("V1(t, p) :- M(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.System().SetPolicy("app", map[string][]string{"W1": {"V1"}}); err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(d, "admin")
	if err != nil {
		t.Fatal(err)
	}
	h := prim.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewUnstartedServer(h)
	l := &countingListener{Listener: srv.Listener}
	srv.Listener = l
	if tls {
		srv.StartTLS()
	} else {
		srv.Start()
	}
	t.Cleanup(srv.Close)
	return d, srv, l
}

// onDecide wraps a handler so that decide requests go through decide, with
// the real handler as next, and every other request straight to it.
func onDecide(decide func(w http.ResponseWriter, r *http.Request, next http.Handler)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/decide") {
				decide(w, r, next)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// idleConns is how many decision connections the follower's pool holds.
func (f *Follower) idleConns() int {
	f.dec.mu.Lock()
	defer f.dec.mu.Unlock()
	return len(f.dec.idle)
}

// TestDecideReusesConnections: with more submitters waiting on a decision
// RPC at once than net/http's default of two idle connections per host,
// every further RPC used to dial a connection and tear it down. The
// follower's own pool keeps them: the connections a primary accepts are
// bounded by the pool, not by the number of calls.
func TestDecideReusesConnections(t *testing.T) {
	_, srv, l := decidePrimary(t, false, nil)
	fol, err := NewFollower(FollowerOptions{Primary: srv.URL, Token: "admin", Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 16, 100
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if dec, err := fol.Decide("app", qm); err != nil || !dec.Allowed {
					t.Errorf("Decide: allowed=%v err=%v", dec.Allowed, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// One connection per caller, plus the few dials that lose the race
	// against a connection coming back to the pool.
	if got := l.accepted.Load(); callers > idleConnsPerPrimary || got > 2*callers {
		t.Fatalf("%d Decide calls from %d callers opened %d connections (pool of %d), want at most %d",
			callers*rounds, callers, got, idleConnsPerPrimary, 2*callers)
	}
}

// TestFollowerPrimaryURL: a base URL with a trailing slash reaches the
// primary for every request — the decision RPC used to go to
// //v1/repl/decide, which the mux redirects and net/http re-sent as a GET
// (405) — and a URL that is not http(s) with a host and nothing after the
// path is refused at construction.
func TestFollowerPrimaryURL(t *testing.T) {
	_, srv, _ := decidePrimary(t, false, nil)
	for _, primary := range []string{srv.URL + "/", srv.URL + "//"} {
		fol, err := NewFollower(FollowerOptions{Primary: primary, Token: "admin", Interval: time.Hour})
		if err != nil {
			t.Fatalf("NewFollower(%q): %v", primary, err)
		}
		if dec, err := fol.Decide("app", qm); err != nil || !dec.Allowed {
			t.Fatalf("Decide via %q: allowed=%v err=%v, want admitted", primary, dec.Allowed, err)
		}
		if fol.Primary() != srv.URL {
			t.Errorf("Primary() = %q, want %q", fol.Primary(), srv.URL)
		}
	}
	for _, primary := range []string{"", "127.0.0.1:8080", "ftp://h", "http://", "http:h", "http://h/?x=1", "http://h?", "http://h/#f", "http://h:8080/%zz"} {
		if _, err := NewFollower(FollowerOptions{Primary: primary, Token: "admin"}); err == nil || !strings.Contains(err.Error(), "primary URL") {
			t.Errorf("NewFollower(%q) err = %v, want the URL refused", primary, err)
		}
	}
}

// TestDecideOverTLS: an https primary is dialed through crypto/tls with the
// fetch client's TLS settings (here, the test server's certificate).
func TestDecideOverTLS(t *testing.T) {
	_, srv, _ := decidePrimary(t, true, nil)
	fol, err := NewFollower(FollowerOptions{Primary: srv.URL, Token: "admin", HTTP: srv.Client(), Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if dec, err := fol.Decide("app", qm); err != nil || !dec.Allowed {
			t.Fatalf("Decide over https: allowed=%v err=%v, want admitted", dec.Allowed, err)
		}
	}
	if fol.idleConns() != 1 {
		t.Errorf("%d idle decision connections after two RPCs, want 1", fol.idleConns())
	}
}

// TestDecideReplyCutAfterFirstByte: a reply that breaks off after its first
// byte may follow a decision the primary made, so the RPC fails — the
// submission fails closed — and the request is not sent again, though it
// went out on a reused connection.
func TestDecideReplyCutAfterFirstByte(t *testing.T) {
	var cut atomic.Bool
	var decides atomic.Int64
	d, srv, _ := decidePrimary(t, false, onDecide(func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		decides.Add(1)
		if !cut.Load() {
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(httptest.NewRecorder(), r)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = conn.Write([]byte("H"))
		conn.Close()
	}))
	fol, err := NewFollower(FollowerOptions{Primary: srv.URL, Token: "admin", Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := fol.Decide("app", qm); err != nil || !dec.Allowed {
		t.Fatalf("Decide: allowed=%v err=%v, want admitted", dec.Allowed, err)
	}
	if fol.idleConns() != 1 {
		t.Fatalf("%d idle decision connections, want 1", fol.idleConns())
	}
	cut.Store(true)
	queries, sent := d.System().Stats().Queries, decides.Load()
	if dec, err := fol.Decide("app", qm); err == nil || dec.Allowed {
		t.Fatalf("Decide with the reply cut: allowed=%v err=%v, want an error", dec.Allowed, err)
	}
	if got := decides.Load() - sent; got != 1 {
		t.Errorf("the request reached the primary %d times, want 1", got)
	}
	if got := d.System().Stats().Queries - queries; got != 1 {
		t.Errorf("the primary decided %d queries, want 1", got)
	}
	if fol.idleConns() != 0 {
		t.Errorf("%d idle decision connections after a cut reply, want 0", fol.idleConns())
	}
}

// TestDecideConnectionClose: a connection whose reply said Connection:
// close goes back to no pool; every RPC dials its own, and each succeeds.
func TestDecideConnectionClose(t *testing.T) {
	_, srv, l := decidePrimary(t, false, onDecide(func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		w.Header().Set("Connection", "close")
		next.ServeHTTP(w, r)
	}))
	fol, err := NewFollower(FollowerOptions{Primary: srv.URL, Token: "admin", Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const rpcs = 3
	accepted := l.accepted.Load()
	for i := 0; i < rpcs; i++ {
		if dec, err := fol.Decide("app", qm); err != nil || !dec.Allowed {
			t.Fatalf("Decide: allowed=%v err=%v, want admitted", dec.Allowed, err)
		}
		if fol.idleConns() != 0 {
			t.Fatalf("a connection whose reply said Connection: close is idle in the pool")
		}
	}
	if got := l.accepted.Load() - accepted; got != rpcs {
		t.Errorf("%d decision RPCs opened %d connections, want %d", rpcs, got, rpcs)
	}
}
