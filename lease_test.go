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
