package repl

import (
	"fmt"
	"math"
	"sync"
	"time"

	disclosure "repro"
)

// Lease is the primary's decision lease: a deadline renewed by follower
// contact (every authenticated replication request) that, once expired,
// refuses admission decisions until a follower reconnects. It is the
// second half of split-brain safety — epoch fencing stops a stale primary
// the moment any message from the new epoch reaches it, while the lease
// stops a fully partitioned primary that hears nothing at all: after TTL
// without follower contact it cannot admit, so an operator who waits one
// TTL before promoting a follower knows the old primary is no longer
// handing out admits, reachable or not.
//
// The trade-off is deliberate and configuration-gated (cmd/disclosured's
// -lease-ttl, default off): with a lease, a primary that loses all of its
// followers also loses decision availability — consistency over
// availability, which is the only sound choice for a cumulative-disclosure
// monitor whose refusals must never be forgotten.
type Lease struct {
	ttl time.Duration
	// now is time.Now; a test substitutes a fixed clock to stand exactly
	// on the deadline.
	now func() time.Time

	mu      sync.Mutex
	renewed time.Time
}

// NewLease creates a lease with the given TTL, initially renewed (a fresh
// primary gets one full TTL to be discovered by its followers). A zero or
// negative TTL returns nil, and a nil *Lease is a valid always-renewed
// no-op in every method.
func NewLease(ttl time.Duration) *Lease {
	if ttl <= 0 {
		return nil
	}
	return &Lease{ttl: ttl, now: time.Now, renewed: time.Now()}
}

// Renew resets the lease deadline — called on every authenticated
// follower request.
func (l *Lease) Renew() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.renewed = l.now()
	l.mu.Unlock()
}

// Remaining returns how much of the lease is left: zero or negative once
// it has expired, the largest Duration for a nil lease, which never does.
// Valid and Check are both this one reading compared against zero.
func (l *Lease) Remaining() time.Duration {
	if l == nil {
		return math.MaxInt64
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ttl - l.now().Sub(l.renewed)
}

// Valid reports whether the lease is current: some of it remains. A full
// TTL without contact is expired, as is anything longer.
func (l *Lease) Valid() bool { return l.Remaining() > 0 }

// TTL returns the configured lease duration (zero for a nil lease).
func (l *Lease) TTL() time.Duration {
	if l == nil {
		return 0
	}
	return l.ttl
}

// Check is the decision-gate hook (disclosure.Durable.SetDecisionGate):
// nil while the lease is valid, an error wrapping
// disclosure.ErrLeaseExpired once it is not.
func (l *Lease) Check() error {
	left := l.Remaining()
	if left > 0 {
		return nil
	}
	return fmt.Errorf("%w: no follower contact for %s (ttl %s)", disclosure.ErrLeaseExpired, (l.ttl - left).Round(time.Millisecond), l.ttl)
}
