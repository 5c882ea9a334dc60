package disclosure

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestLeaseBoundary: Valid, Check and the sign of Remaining are one
// predicate — on a nil lease, a fresh one, one a nanosecond before its
// deadline, one standing exactly on it, one a nanosecond past it and an
// expired one.
func TestLeaseBoundary(t *testing.T) {
	const ttl = time.Second
	m := clock.Install(t)
	for _, tc := range []struct {
		name      string
		ttl       time.Duration // NewLease's: one not positive makes a nil lease
		since     time.Duration
		remaining time.Duration
		valid     bool
	}{
		{"nil", -1, 0, math.MaxInt64, true},
		{"disabled", 0, 0, math.MaxInt64, true},
		{"fresh", ttl, 0, ttl, true},
		{"one tick left", ttl, ttl - 1, 1, true},
		{"exactly at TTL", ttl, ttl, 0, false},
		{"one tick past", ttl, ttl + 1, -1, false},
		{"expired", ttl, 3 * ttl, -2 * ttl, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLease(tc.ttl)
			m.Advance(tc.since)
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

// awaitWaiting returns once a waitOut is blocked on h.
func awaitWaiting(h *readHolds) {
	for waiting := false; !waiting; time.Sleep(time.Millisecond) {
		h.mu.Lock()
		waiting = h.pulled != nil
		h.mu.Unlock()
	}
}

// TestReadHoldsWaitOut: a state change waits out exactly the holds live
// when it committed — until each lapses or its follower pulls again — and
// nothing else: not a hold granted after it, not a window over the cap,
// and nothing at all on an empty table.
func TestReadHoldsWaitOut(t *testing.T) {
	m := clock.Install(t)
	var h readHolds
	timed := func() time.Duration {
		t0 := clock.Now()
		h.waitOut()
		return time.Duration(clock.Now() - t0)
	}
	if d := timed(); d > 10*time.Millisecond {
		t.Fatalf("waitOut on an empty table took %s", d)
	}
	if h.grant("far", MaxReadLease+time.Nanosecond) || h.n.Load() != 0 {
		t.Fatalf("a window over the cap was granted: %d holds", h.n.Load())
	}

	const window = 60 * time.Millisecond
	granted := clock.Now()
	if !h.grant("a", window) {
		t.Fatal("a window under the cap was refused")
	}
	go func() { awaitWaiting(&h); m.Advance(window) }()
	timed()
	if since := time.Duration(clock.Now() - granted); since < window {
		t.Fatalf("waitOut returned %s after the grant, inside its %s window", since, window)
	}

	// The hold lasts a second: a grant to another follower does not end
	// the wait, the same follower's next pull does.
	h.grant("a", time.Second)
	done := make(chan time.Duration, 1)
	go func() { done <- timed() }()
	awaitWaiting(&h)
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
	clock.Install(t)
	s := MustSchema(MustRelation("M", "time", "person"))
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurabilityOptions{}, s, MustParse("V1(t, p) :- M(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	if n := d.holds.n.Load(); n != 0 {
		t.Fatalf("a fresh deployment holds %d leases", n)
	}
	opened := clock.Now()
	d, err = OpenDurable(dir, DurabilityOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hd, ok := d.holds.m[""]
	if d.holds.n.Load() != 1 || !ok || hd.until < opened+int64(MaxReadLease) || hd.until > clock.Now()+int64(MaxReadLease) {
		t.Fatalf("recovered holds = %v, want one lapsing MaxReadLease after the recovery", d.holds.m)
	}
}

// TestReadLeaseBoundary: a replica's read lease is held until the clock
// reaches its deadline — a nanosecond before it, not at it, not after it.
func TestReadLeaseBoundary(t *testing.T) {
	m := clock.Install(t)
	for _, off := range []time.Duration{-1, 0, 1} {
		r := &Replica{replayState{sys: new(System)}}
		r.GrantLease(clock.Now() + int64(time.Second))
		if m.Advance(time.Second + off); r.Leased() != (off < 0) {
			t.Errorf("%s from the deadline: Leased = %v, want %v", off, r.Leased(), off < 0)
		}
	}
}

// TestReadHoldBoundary: a read hold lapses when the clock reaches its
// deadline. prune forgets it there and not a nanosecond before, and a
// waitOut blocked on it wakes there: not a nanosecond before, and a
// waitOut begun after it returns at once.
func TestReadHoldBoundary(t *testing.T) {
	m := clock.Install(t)
	const window = time.Second
	for _, off := range []time.Duration{-1, 0, 1} {
		var h readHolds
		h.grant("a", window)
		h.mu.Lock()
		h.prune(clock.Now() + int64(window+off))
		h.mu.Unlock()
		if kept := h.n.Load() == 1; kept != (off < 0) {
			t.Errorf("prune %s from the deadline kept the hold: %v, want %v", off, kept, off < 0)
		}
	}

	var h readHolds
	h.grant("a", window)
	done := make(chan struct{})
	go func() { h.waitOut(); close(done) }()
	awaitWaiting(&h)
	m.Advance(window - 1)
	select {
	case <-done:
		t.Fatal("waitOut returned a nanosecond before the hold lapsed")
	default:
	}
	m.Advance(1)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waitOut still waits on a hold the clock has reached")
	}
	m.Advance(1)
	if h.waitOut(); h.n.Load() != 0 {
		t.Fatalf("a waitOut a nanosecond past the deadline left %d holds", h.n.Load())
	}
}
