package policy

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/label"
)

func TestConcurrentStoreBasics(t *testing.T) {
	c := contactsCatalog(t)
	p, err := New(c, map[string][]string{"W1": {"V1"}, "W2": {"V3"}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewConcurrentStore()
	s.SetPolicy("app", p)
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	l := label.NewLabeler(c)
	lbl, _ := l.Label(cq.MustParse("Q(x) :- M(x, y)"))
	d, err := s.Submit("app", lbl)
	if err != nil || !d.Allowed {
		t.Fatalf("submit: %+v %v", d, err)
	}
	live, acc, ref, err := s.Snapshot("app")
	if err != nil || acc != 1 || ref != 0 || len(live) != 1 || live[0] != "W1" {
		t.Errorf("Snapshot = %v %d %d %v", live, acc, ref, err)
	}
	if _, err := s.Submit("ghost", lbl); err == nil {
		t.Error("unknown principal accepted")
	}
	if err := s.Do("ghost", func(*Monitor) {}); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("Do on an unknown principal: %v, want ErrUnknownPrincipal", err)
	}
	if _, _, _, err := s.Snapshot("ghost"); err == nil {
		t.Error("unknown principal accepted by Snapshot")
	}
	s.Remove("app")
	if s.Len() != 0 {
		t.Error("Remove failed")
	}
}

// TestConcurrentStoreParallel exercises the store from many goroutines;
// run with -race to validate the locking discipline.
func TestConcurrentStoreParallel(t *testing.T) {
	c := contactsCatalog(t)
	s := NewConcurrentStore()
	const principals = 8
	for i := 0; i < principals; i++ {
		p, err := New(c, map[string][]string{"W1": {"V1"}, "W2": {"V3"}})
		if err != nil {
			t.Fatal(err)
		}
		s.SetPolicy(fmt.Sprintf("app%d", i), p)
	}
	l := label.NewLabeler(c)
	meetings, _ := l.Label(cq.MustParse("Q(x) :- M(x, y)"))
	contacts, _ := l.Label(cq.MustParse("Q(p) :- C(p, e, r)"))

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			principal := fmt.Sprintf("app%d", g%principals)
			for i := 0; i < 200; i++ {
				lbl := meetings
				if (g+i)%2 == 0 {
					lbl = contacts
				}
				if _, err := s.Submit(principal, lbl); err != nil {
					t.Error(err)
					return
				}
				if err := s.Do(principal, func(m *Monitor) { m.Check(lbl) }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every principal must have ended in a consistent state: exactly one
	// live partition (both label kinds were submitted, so the wall chose a
	// side), and accepted+refused == 400 submissions.
	for i := 0; i < principals; i++ {
		live, acc, ref, err := s.Snapshot(fmt.Sprintf("app%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != 1 {
			t.Errorf("app%d: live = %v, want exactly one surviving partition", i, live)
		}
		if acc+ref != 400 {
			t.Errorf("app%d: accepted %d + refused %d != 400", i, acc, ref)
		}
		if acc == 0 || ref == 0 {
			t.Errorf("app%d: expected both accepts and refusals, got %d/%d", i, acc, ref)
		}
	}
}
