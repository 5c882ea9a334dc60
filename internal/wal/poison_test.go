package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// This file covers the GroupLog failure model: a write or sync error
// poisons the log for every already-enqueued waiter and every future
// operation, and the Flush/Close barriers stay correct when raced by
// concurrent Enqueues. The injection vector is in-package sabotage: the
// underlying *os.File is closed out from under the log, so the next
// write or sync fails exactly where a full disk or dying device would.

// TestGroupLogPoisonReachesEnqueuedWaiters buffers several records in one
// open commit window, sabotages the file, and then waits on every ticket:
// the drafted leader's write fails and every waiter of the window must see
// the same sticky error — none may report durable success.
func TestGroupLogPoisonReachesEnqueuedWaiters(t *testing.T) {
	g, err := CreateGroup(filepath.Join(t.TempDir(), "g.log"), true)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	tickets := make([]uint64, n)
	for i := range tickets {
		e, err := g.Enqueue(fmt.Appendf(nil, "r%d", i))
		if err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
		tickets[i] = e
	}
	if err := g.f.Close(); err != nil { // sabotage: the commit write will fail
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, e := range tickets {
		wg.Add(1)
		go func(i int, e uint64) {
			defer wg.Done()
			errs[i] = g.WaitDurable(e)
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d reported durable success on a poisoned log", i)
		}
	}
	if g.Err() == nil {
		t.Fatal("Err() is nil after a failed commit")
	}
	// The poison is sticky: future operations fail without touching the file.
	if _, err := g.Enqueue([]byte("late")); err == nil {
		t.Fatal("Enqueue succeeded on a poisoned log")
	}
	if err := g.Flush(); err == nil {
		t.Fatal("Flush succeeded on a poisoned log")
	}
	if err := g.Close(); err == nil {
		t.Fatal("Close returned nil on a poisoned log, want the sticky error")
	}
}

// TestGroupLogFlushSyncErrorPoisons drives the barrier's own sync through
// the failure path: Flush on a sabotaged file must fail, poison the log,
// and keep failing every later operation.
func TestGroupLogFlushSyncErrorPoisons(t *testing.T) {
	g, err := CreateGroup(filepath.Join(t.TempDir(), "g.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]byte("durable-before")); err != nil {
		t.Fatal(err)
	}
	if err := g.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err == nil {
		t.Fatal("Flush succeeded with a failing sync")
	}
	if _, err := g.Enqueue([]byte("late")); err == nil {
		t.Fatal("Enqueue succeeded after a failed Flush")
	}
	// Window 1 committed before the sabotage and stays durable; the open
	// window can never commit now.
	if err := g.WaitDurable(1); err != nil {
		t.Fatalf("WaitDurable on the pre-failure window: %v, want success", err)
	}
	if err := g.WaitDurable(2); err == nil {
		t.Fatal("WaitDurable reported success for a window opened after the failure")
	}
}

// TestGroupLogBarriersRaceEnqueue hammers Flush against concurrent
// appenders and then races Close the same way (run under -race): the
// barriers must neither deadlock nor tear, every record acknowledged
// durable must replay, and appenders that lose the race to Close must get
// ErrLogClosed — never a torn write or a false success.
func TestGroupLogBarriersRaceEnqueue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := CreateGroup(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	acked := make(map[string]bool)
	var wg sync.WaitGroup
	const workers, perWorker = 6, 150
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := fmt.Sprintf("w%d-%d", w, i)
				e, err := g.Enqueue([]byte(rec))
				if err != nil {
					if !errors.Is(err, ErrLogClosed) {
						t.Errorf("Enqueue: %v", err)
					}
					return
				}
				if err := g.WaitDurable(e); err != nil {
					if !errors.Is(err, ErrLogClosed) {
						t.Errorf("WaitDurable: %v", err)
					}
					return
				}
				mu.Lock()
				acked[rec] = true
				mu.Unlock()
			}
		}(w)
	}
	flushes := make(chan struct{})
	go func() {
		defer close(flushes)
		for i := 0; i < 50; i++ {
			if err := g.Flush(); err != nil && !errors.Is(err, ErrLogClosed) {
				t.Errorf("Flush: %v", err)
				return
			}
		}
	}()
	<-flushes
	if err := g.Close(); err != nil {
		t.Fatalf("Close racing appenders: %v", err)
	}
	wg.Wait()
	seen := make(map[string]bool)
	if _, _, err := Replay(path, func(p []byte) error {
		seen[string(p)] = true
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for rec := range acked {
		if !seen[rec] {
			t.Fatalf("record %q was acknowledged durable but did not replay", rec)
		}
	}
}
