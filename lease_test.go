package disclosure

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestLeaseBoundary: Valid, Check and the sign of Remaining are one
// predicate — on a nil lease, a fresh one, one standing exactly on its
// deadline and an expired one.
func TestLeaseBoundary(t *testing.T) {
	const ttl = time.Second
	start := time.Unix(1_000_000, 0)
	at := func(since time.Duration) *Lease {
		l := NewLease(ttl)
		l.renewed = start
		l.now = func() time.Time { return start.Add(since) }
		return l
	}
	for _, tc := range []struct {
		name      string
		lease     *Lease
		remaining time.Duration
		valid     bool
	}{
		{"nil", nil, math.MaxInt64, true},
		{"disabled", NewLease(0), math.MaxInt64, true},
		{"fresh", at(0), ttl, true},
		{"one tick left", at(ttl - 1), 1, true},
		{"exactly at TTL", at(ttl), 0, false},
		{"expired", at(3 * ttl), -2 * ttl, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.lease
			if got := l.Remaining(); got != tc.remaining {
				t.Errorf("Remaining = %v, want %v", got, tc.remaining)
			}
			if got := l.Valid(); got != tc.valid {
				t.Errorf("Valid = %v, want %v", got, tc.valid)
			}
			err := l.Check()
			if (err == nil) != tc.valid {
				t.Errorf("Check = %v, but Valid = %v", err, tc.valid)
			}
			if err != nil && !errors.Is(err, ErrLeaseExpired) {
				t.Errorf("Check = %v, want it to wrap ErrLeaseExpired", err)
			}
			l.Renew()
			if !l.Valid() || l.Check() != nil {
				t.Errorf("after Renew: Valid = %v, Check = %v; want a current lease", l.Valid(), l.Check())
			}
		})
	}
	if got := (*Lease)(nil).TTL(); got != 0 {
		t.Errorf("nil TTL = %v, want 0", got)
	}
}

// waiting reports whether a waitOut is blocked on the table.
func (h *readHolds) waiting() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pulled != nil
}

// TestReadHoldsWaitOut: a state change waits out exactly the holds live
// when it committed — until each lapses or its follower pulls again — and
// nothing else: not a hold granted after it, not a window over the cap,
// and nothing at all on an empty table.
func TestReadHoldsWaitOut(t *testing.T) {
	var h readHolds
	timed := func() time.Duration {
		t0 := time.Now()
		h.waitOut()
		return time.Since(t0)
	}
	if d := timed(); d > 10*time.Millisecond {
		t.Fatalf("waitOut on an empty table took %s", d)
	}
	if h.grant("far", MaxReadLease+time.Nanosecond) || h.n.Load() != 0 {
		t.Fatalf("a window over the cap was granted: %d holds", h.n.Load())
	}

	const window = 60 * time.Millisecond
	granted := time.Now()
	if !h.grant("a", window) {
		t.Fatal("a window under the cap was refused")
	}
	timed()
	if since := time.Since(granted); since < window {
		t.Fatalf("waitOut returned %s after the grant, inside its %s window", since, window)
	}

	// The hold lasts a second: a grant to another follower does not end
	// the wait, the same follower's next pull does.
	h.grant("a", time.Second)
	done := make(chan time.Duration, 1)
	go func() { done <- timed() }()
	for !h.waiting() {
		time.Sleep(time.Millisecond)
	}
	h.grant("b", time.Second)
	select {
	case d := <-done:
		t.Fatalf("waitOut returned after %s on another follower's grant", d)
	case <-time.After(20 * time.Millisecond):
	}
	h.grant("a", time.Second)
	if d := <-done; d >= time.Second {
		t.Fatalf("waitOut took %s, want it released by the follower's next pull", d)
	}
}

// TestDurableInheritsHolds: a fresh deployment starts with no hold, so its
// first policy install returns at once; a recovered one, or a promoted
// follower, stands in for the leases its earlier primary may have granted
// with one hold that lapses MaxReadLease after it opened.
func TestDurableInheritsHolds(t *testing.T) {
	s := MustSchema(MustRelation("M", "time", "person"))
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurabilityOptions{}, s, MustParse("V1(t, p) :- M(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	if n := d.holds.n.Load(); n != 0 {
		t.Fatalf("a fresh deployment holds %d leases", n)
	}
	opened := time.Now()
	d, err = OpenDurable(dir, DurabilityOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hd, ok := d.holds.m[""]
	if d.holds.n.Load() != 1 || !ok || hd.until.Before(opened.Add(MaxReadLease)) || hd.until.After(time.Now().Add(MaxReadLease)) {
		t.Fatalf("recovered holds = %v, want one lapsing MaxReadLease after the recovery", d.holds.m)
	}
}
