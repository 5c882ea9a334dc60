package repl

import (
	"net"
	"net/http/httptest"
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

// TestDecideReusesConnections: with more submitters waiting on a decision
// RPC at once than net/http's default of two idle connections per host,
// every further RPC used to dial a connection and tear it down. The
// follower's own pool keeps them: the connections a primary accepts are
// bounded by the pool, not by the number of calls.
func TestDecideReusesConnections(t *testing.T) {
	s := disclosure.MustSchema(disclosure.MustRelation("M", "time", "person"))
	d, err := disclosure.OpenDurable(t.TempDir(), disclosure.DurabilityOptions{NoSync: true}, s,
		disclosure.MustParse("V1(t, p) :- M(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.System().SetPolicy("app", map[string][]string{"W1": {"V1"}}); err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(d, "admin")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(prim.Handler())
	l := &countingListener{Listener: srv.Listener}
	srv.Listener = l
	srv.Start()
	defer srv.Close()

	fol, err := NewFollower(FollowerOptions{Primary: srv.URL, Token: "admin", Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 16, 100
	q := disclosure.MustParse("QM(t) :- M(t, p)")
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if dec, err := fol.Decide("app", q); err != nil || !dec.Allowed {
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
