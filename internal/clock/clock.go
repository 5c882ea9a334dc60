// Package clock is the one source of time for the deadlines a decision
// rests on: the decision lease, a replica's read lease, the primary's read
// holds, a follower's contact window and its staleness. It reads the
// monotonic clock in unix nanoseconds, so a wall-clock step moves no
// deadline, and a test installs a manual clock (Install) to decide expiry
// instead of sleeping. Cadences, network deadlines and measurements use time.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

var (
	start  = time.Now()
	manual atomic.Pointer[Manual] // the installed manual clock, nil for none
)

// Now returns the clock's reading in unix nanoseconds.
func Now() int64 {
	if m := manual.Load(); m != nil {
		return m.now.Load()
	}
	return start.UnixNano() + int64(time.Since(start))
}

// Timer delivers the clock's reading once, on C, when the clock reaches
// its deadline.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// TimerAt returns a timer that fires when the clock reaches at; one whose
// deadline has been reached fires at once.
func TimerAt(at int64) *Timer {
	if m := manual.Load(); m != nil {
		return m.timerAt(at)
	}
	t := time.NewTimer(time.Duration(at - Now()))
	return &Timer{C: t.C, stop: t.Stop}
}

// Stop releases the timer, reporting whether it had not fired yet.
func (t *Timer) Stop() bool { return t.stop() }

// Deadline is an instant on the clock, zero for none, safe for concurrent
// use: valid while the clock is before it, expired once the clock reaches it.
type Deadline struct{ ns atomic.Int64 }

// Valid reports whether the clock has not reached the deadline yet.
func (d *Deadline) Valid() bool { return Now() < d.ns.Load() }

// Remaining returns how long is left: zero or negative once expired.
func (d *Deadline) Remaining() time.Duration { return time.Duration(d.ns.Load() - Now()) }

// Extend moves the deadline to ttl from now.
func (d *Deadline) Extend(ttl time.Duration) { d.ns.Store(Now() + int64(ttl)) }

// Set moves the deadline to the instant at.
func (d *Deadline) Set(at int64) { d.ns.Store(at) }

// Clear expires the deadline.
func (d *Deadline) Clear() { d.ns.Store(0) }

// Manual is a clock that stands still until a test advances it; its timers
// fire on Advance.
type Manual struct {
	now    atomic.Int64
	mu     sync.Mutex
	timers map[chan time.Time]int64 // each waiting timer's deadline
}

// Install makes a manual clock, standing at the current reading, the one
// Now and TimerAt read until the test t ends.
func Install(t interface{ Cleanup(func()) }) *Manual {
	m := &Manual{timers: map[chan time.Time]int64{}}
	m.now.Store(Now())
	manual.Store(m)
	t.Cleanup(func() { manual.CompareAndSwap(m, nil) })
	return m
}

// Advance moves the clock d forward and fires every timer it reaches.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now.Add(int64(d))
	for c, at := range m.timers {
		if at <= now {
			c <- time.Unix(0, now)
			delete(m.timers, c)
		}
	}
}

// Timers returns how many timers wait on the clock: a test advances once
// the code under test has armed the one it blocks on.
func (m *Manual) Timers() int { m.mu.Lock(); defer m.mu.Unlock(); return len(m.timers) }

func (m *Manual) timerAt(at int64) *Timer {
	c := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := m.now.Load(); at <= now {
		c <- time.Unix(0, now)
	} else {
		m.timers[c] = at
	}
	return &Timer{C: c, stop: func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		_, waiting := m.timers[c]
		delete(m.timers, c)
		return waiting
	}}
}
