package disclosure

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// barrierRig is a one-shard durable wall deployment whose commit-window
// fsync the test holds shut: with the gate closed, a logged transition
// stays "written but not durable" for as long as the test likes.
type barrierRig struct {
	dir       string
	d         *Durable
	qa, qb    *Query
	entered   chan struct{} // one token per fsync that reached the gate
	gate      chan struct{} // closed (by open) to let the fsyncs through
	open      func()
	committed atomic.Bool // set once a gated fsync was let through
}

func barrierFixture() (*Schema, []*Query) {
	s := MustSchema(MustRelation("A", "x"), MustRelation("B", "x"))
	return s, []*Query{MustParse("VA(x) :- A(x)"), MustParse("VB(x) :- B(x)")}
}

func newBarrierRig(t *testing.T) *barrierRig {
	t.Helper()
	r := &barrierRig{
		dir:     t.TempDir(),
		qa:      MustParse("QA(x) :- A(x)"),
		qb:      MustParse("QB(x) :- B(x)"),
		entered: make(chan struct{}, 16), // never blocks the fsync: far more than the test's commit windows
		gate:    make(chan struct{}),
	}
	r.open = sync.OnceFunc(func() { close(r.gate) })
	s, views := barrierFixture()
	d, err := OpenDurable(r.dir, DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	r.d = d
	// A failing test must not leave a commit leader parked at the gate:
	// Close would wait for it forever.
	t.Cleanup(func() {
		r.open()
		d.Close()
	})
	if err := d.System().SetPolicy("app", map[string][]string{"A": {"VA"}, "B": {"VB"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	// Gate the data log's fsync from here on; the policy record above is
	// already durable.
	lg := d.data.log
	lg.SetSyncFunc(func() error {
		r.entered <- struct{}{}
		<-r.gate
		r.committed.Store(true)
		return nil
	})
	return r
}

// submit runs one submission on its own goroutine and reports the decision
// together with whether the gated fsync had been let through by the time
// the decision was released.
type released struct {
	dec       Decision
	err       error
	committed bool
}

func (r *barrierRig) submit(q *Query) <-chan released {
	out := make(chan released, 1)
	go func() {
		dec, _, err := r.d.System().Submit("app", q)
		out <- released{dec, err, r.committed.Load()}
	}()
	return out
}

// TestAckBarrierHoldsReadOnlyDecision is the ack barrier under the race
// detector: while the transition that retires partition B is written but
// not yet fsynced, a repeated A-only admit — a decision that logs nothing
// itself — must not be released, because a crash at that instant recovers
// both partitions live and a later B-only query would be admitted on top
// of an A answer already handed out. A refusal decided on top of the
// pending transition is held the same way.
func TestAckBarrierHoldsReadOnlyDecision(t *testing.T) {
	r := newBarrierRig(t)

	transition := r.submit(r.qa)
	<-r.entered // the transition's window is written and its fsync is held
	repeat := r.submit(r.qa)
	refusal := r.submit(r.qb)

	select {
	case got := <-transition:
		t.Fatalf("the transition was acknowledged before its fsync: %+v", got)
	case got := <-repeat:
		t.Fatalf("a read-only admit was released while the transition it rests on was not durable: %+v", got)
	case got := <-refusal:
		t.Fatalf("a refusal was released while the transition it rests on was not durable: %+v", got)
	case <-time.After(100 * time.Millisecond):
	}

	r.open()
	for name, ch := range map[string]<-chan released{"transition": transition, "repeated admit": repeat} {
		if got := <-ch; got.err != nil || !got.dec.Allowed || !got.committed {
			t.Errorf("%s = (allowed=%v, err=%v, released after commit=%v), want admitted after the commit", name, got.dec.Allowed, got.err, got.committed)
		}
	}
	if got := <-refusal; got.err != nil || got.dec.Allowed || !got.committed {
		t.Errorf("refusal = (allowed=%v, err=%v, released after commit=%v), want refused after the commit", got.dec.Allowed, got.err, got.committed)
	}
}

// TestAckBarrierCrashConsistency kills the deployment at both sides of the
// barrier. Before the transition's window is durable, a crash loses it and
// recovers both partitions live — consistent, because the barrier released
// no answer. Once the window committed and the decisions are out, a crash
// (the handle is abandoned, nothing more was logged by the read-only
// decisions) must recover the wall.
func TestAckBarrierCrashConsistency(t *testing.T) {
	r := newBarrierRig(t)
	s, views := barrierFixture()
	reopen := func(dir string) (live string, admitsB bool) {
		t.Helper()
		rec, err := OpenDurable(dir, DurabilityOptions{}, s, views...)
		if err != nil {
			t.Fatalf("recovering OpenDurable: %v", err)
		}
		defer rec.Close()
		names, err := rec.System().Session("app")
		if err != nil {
			t.Fatalf("recovered Session: %v", err)
		}
		dec, _, err := rec.System().Submit("app", r.qb)
		if err != nil {
			t.Fatalf("recovered Submit: %v", err)
		}
		return fmt.Sprint(names), dec.Allowed
	}

	transition := r.submit(r.qa)
	<-r.entered
	repeat := r.submit(r.qa)

	// Power loss now: what survives is the fsynced prefix of the segment.
	lost := t.TempDir()
	if err := os.CopyFS(lost, os.DirFS(r.dir)); err != nil {
		t.Fatal(err)
	}
	sh := r.d.data
	if err := os.Truncate(wal.ShardSegmentPath(lost, sh.name, 0), sh.log.CommittedOffset()); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-transition:
		t.Fatalf("the transition was acknowledged before its fsync: %+v", got)
	case got := <-repeat:
		t.Fatalf("a read-only admit was released before the crash point: %+v", got)
	default:
	}
	if live, admitsB := reopen(lost); live != "[A B]" || !admitsB {
		t.Fatalf("crash before the commit recovered live=%s admitsB=%v, want the pre-transition session ([A B], true)", live, admitsB)
	}

	r.open()
	for _, ch := range []<-chan released{transition, repeat} {
		if got := <-ch; got.err != nil || !got.dec.Allowed {
			t.Fatalf("after the commit: allowed=%v err=%v, want admitted", got.dec.Allowed, got.err)
		}
	}
	// kill -9 after the answers went out: abandon the handle.
	if live, admitsB := reopen(r.dir); live != "[A]" || admitsB {
		t.Fatalf("crash after the commit recovered live=%s admitsB=%v, want the wall ([A], false)", live, admitsB)
	}
}
