package disclosure

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// ErrLeaseExpired is the sentinel wrapped by decision refusals while the
// deployment's decision lease is expired (no follower contact within
// DurabilityOptions.LeaseTTL), so a partitioned primary stops admitting
// before a follower is promoted. See cmd/disclosured's -lease-ttl.
var ErrLeaseExpired = errors.New("disclosure: decision lease expired")

// Lease is a durable deployment's decision lease: a deadline renewed by
// follower contact (every authenticated replication request) that, once
// expired, refuses admission decisions until a follower reconnects. It is
// the second half of split-brain safety — epoch fencing stops a stale
// primary the moment any message from the new epoch reaches it, while the
// lease stops a fully partitioned primary that hears nothing at all: after
// TTL without follower contact it cannot admit, so an operator who waits
// one TTL before promoting a follower knows the old primary is no longer
// handing out admits, reachable or not.
//
// The trade-off is deliberate and configuration-gated (cmd/disclosured's
// -lease-ttl, default off): with a lease, a primary that loses all of its
// followers also loses decision availability — consistency over
// availability, which is the only sound choice for a cumulative-disclosure
// monitor whose refusals must never be forgotten.
type Lease struct {
	ttl      time.Duration
	deadline clock.Deadline
}

// NewLease creates a lease with the given TTL, initially renewed (a fresh
// primary gets one full TTL to be discovered by its followers). A zero or
// negative TTL returns nil, and a nil *Lease is a valid always-renewed
// no-op in every method.
func NewLease(ttl time.Duration) *Lease {
	if ttl <= 0 {
		return nil
	}
	l := &Lease{ttl: ttl}
	l.deadline.Extend(ttl)
	return l
}

// Renew moves the lease deadline to one TTL from now — called on every
// authenticated follower request.
func (l *Lease) Renew() {
	if l != nil {
		l.deadline.Extend(l.ttl)
	}
}

// Remaining returns how much of the lease is left: zero or negative once
// it has expired, the largest Duration for a nil lease, which never does.
// Valid and Check are both this one reading compared against zero.
func (l *Lease) Remaining() time.Duration {
	if l == nil {
		return math.MaxInt64
	}
	return l.deadline.Remaining()
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

// Check is what Durable.DecisionErr asks before every admission decision:
// nil while the lease is valid, an error wrapping ErrLeaseExpired once it
// is not.
func (l *Lease) Check() error {
	left := l.Remaining()
	if left > 0 {
		return nil
	}
	return fmt.Errorf("%w: no follower contact for %s (ttl %s)", ErrLeaseExpired, (l.ttl - left).Round(time.Millisecond), l.ttl)
}

// MaxReadLease is the longest read lease a primary grants a follower: a
// follower that asks for a longer window (two of its poll intervals) gets
// no grant, admits nothing on its own and sends every would-be admit to the
// primary, as before read leases existed. The cap bounds how long a policy
// installation, removal or token rotation can wait on a follower.
const MaxReadLease = 2 * time.Second

// readLease is one grant of a replica's read lease (Replica.GrantLease):
// the replica may admit on its own until the grant's deadline, or until a
// newer grant or a drop replaces it. The pointer is the grant's identity.
type readLease struct{ until clock.Deadline }

// valid reports whether the grant is held and the clock is before its deadline.
func (l *readLease) valid() bool { return l != nil && l.until.Valid() }

// readHolds is the primary's side of its followers' read leases: for each
// follower, the deadline of the latest lease granted to it and the grant's
// sequence number. A state change a replica could admit against — a
// policy installation, a removal, a token rotation — is acknowledged only
// once every hold that was live at its commit has lapsed or seen its
// follower pull again (waitOut). A follower drops its lease before it
// pulls, and a pull that starts after the commit reads tails that include
// it, so no lease granted before the commit survives its acknowledgement.
type readHolds struct {
	// n is len(m), read without the lock: a deployment no follower leases
	// from pays one load of it per state change.
	n atomic.Int32

	mu  sync.Mutex
	seq uint64
	m   map[string]readHold
	// pulled, when non-nil, is closed by the next grant: a waiter's wake-up.
	pulled chan struct{}
}

// readHold is one follower's latest grant, lapsing at until on the clock.
type readHold struct {
	until int64
	seq   uint64
}

// grant records a lease for follower id lasting window from now, and
// reports whether it was granted: a window above MaxReadLease, or not
// positive, is not.
func (h *readHolds) grant(id string, window time.Duration) bool {
	if window <= 0 || window > MaxReadLease {
		return false
	}
	now := clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = make(map[string]readHold)
	}
	h.seq++
	h.m[id] = readHold{until: now + int64(window), seq: h.seq}
	h.prune(now)
	if h.pulled != nil {
		close(h.pulled)
		h.pulled = nil
	}
	return true
}

// inherit stands in for the leases an earlier primary of the same history
// may have granted — this node's life before a crash, or the primary a
// promoted follower succeeds — which its table never saw: one hold, that
// no pull renews, until MaxReadLease from now. A follower still leased by
// that primary drops the lease at its next pull, and none outlasts the
// cap.
func (h *readHolds) inherit() { h.grant("", MaxReadLease) }

// prune forgets the holds that have lapsed by now and republishes n.
// Callers hold mu.
func (h *readHolds) prune(now int64) {
	for id, hd := range h.m {
		if now >= hd.until {
			delete(h.m, id)
		}
	}
	h.n.Store(int32(len(h.m)))
}

// waitOut returns once every hold live when it was called has lapsed or
// been replaced by a newer grant to the same follower. Call it after the
// commit it guards, with no lock held; with no hold recorded it is one
// atomic load.
func (h *readHolds) waitOut() {
	if h.n.Load() == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.prune(clock.Now())
	live := make(map[string]uint64, len(h.m))
	for id, hd := range h.m {
		live[id] = hd.seq
	}
	for {
		next, now := int64(math.MaxInt64), clock.Now()
		for id, seq := range live {
			if hd, ok := h.m[id]; !ok || hd.seq != seq || now >= hd.until {
				delete(live, id)
			} else {
				next = min(next, hd.until)
			}
		}
		if len(live) == 0 {
			return
		}
		if h.pulled == nil {
			h.pulled = make(chan struct{})
		}
		pulled := h.pulled
		h.mu.Unlock()
		t := clock.TimerAt(next)
		select {
		case <-pulled:
		case <-t.C:
		}
		t.Stop()
		h.mu.Lock()
	}
}
