package clock

import (
	"testing"
	"time"
)

// TestManualTimers: a manual clock's timer fires when Advance reaches its
// deadline and not a nanosecond before; one whose deadline has been reached
// fires at once, and a stopped one never does.
func TestManualTimers(t *testing.T) {
	m := Install(t)
	fired := func(tm *Timer) bool {
		select {
		case <-tm.C:
			return true
		default:
			return false
		}
	}
	at := Now() + int64(time.Second)
	tm, stopped := TimerAt(at), TimerAt(at)
	if !stopped.Stop() || m.Timers() != 1 {
		t.Fatalf("Stop reported a fired timer, or left %d waiting, want 1", m.Timers())
	}
	if m.Advance(time.Second - 1); fired(tm) {
		t.Fatal("the timer fired a nanosecond before its deadline")
	}
	if m.Advance(1); !fired(tm) || fired(stopped) || m.Timers() != 0 {
		t.Fatalf("at the deadline: fired %v, stopped fired %v, %d waiting; want true, false, 0", fired(tm), fired(stopped), m.Timers())
	}
	if !fired(TimerAt(Now())) {
		t.Fatal("a timer at a reached deadline did not fire at once")
	}
}

// TestDeadline: a deadline is valid strictly before the clock reaches it,
// and Extend, Set and Clear move it.
func TestDeadline(t *testing.T) {
	m := Install(t)
	var d Deadline
	if d.Valid() {
		t.Fatal("the zero deadline is valid")
	}
	d.Extend(time.Second)
	for _, tc := range []struct {
		step  time.Duration
		left  time.Duration
		valid bool
	}{{time.Second - 1, 1, true}, {1, 0, false}, {1, -1, false}} {
		if m.Advance(tc.step); d.Valid() != tc.valid || d.Remaining() != tc.left {
			t.Fatalf("Valid = %v, Remaining = %s; want %v, %s", d.Valid(), d.Remaining(), tc.valid, tc.left)
		}
	}
	if d.Set(Now() + 1); !d.Valid() {
		t.Fatal("a deadline set a nanosecond ahead is not valid")
	}
	if d.Clear(); d.Valid() {
		t.Fatal("a cleared deadline is valid")
	}
}

// TestInstallEnds: the manual clock stands still while installed, and the
// real clock is back once the test that installed it ends.
func TestInstallEnds(t *testing.T) {
	t.Run("installed", func(t *testing.T) {
		Install(t)
		if a, b := Now(), Now(); a != b {
			t.Fatalf("the manual clock moved on its own: %d, then %d", a, b)
		}
	})
	if manual.Load() != nil {
		t.Fatal("the manual clock outlived the test that installed it")
	}
	if a := Now(); time.Duration(Now()-a) < 0 {
		t.Fatal("the real clock ran backwards")
	}
}
