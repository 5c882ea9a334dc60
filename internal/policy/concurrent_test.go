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
	live, err := s.Snapshot("app")
	if err != nil || len(live) != 1 || live[0] != "W1" {
		t.Errorf("Snapshot = %v %v", live, err)
	}
	if _, err := s.Submit("ghost", lbl); err == nil {
		t.Error("unknown principal accepted")
	}
	if err := s.Do("ghost", func(*Monitor) {}); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("Do on an unknown principal: %v, want ErrUnknownPrincipal", err)
	}
	if _, err := s.Snapshot("ghost"); err == nil {
		t.Error("unknown principal accepted by Snapshot")
	}
	s.Remove("app")
	if s.Len() != 0 {
		t.Error("Remove failed")
	}
}

// TestConcurrentStoreParallel exercises the store from many goroutines;
// run with -race to validate the locking discipline. However the
// submissions interleave, a session's cumulative label ends as the join of
// the labels its decisions admitted: under the all-views policy every label
// submitted, under the wall exactly one side's.
func TestConcurrentStoreParallel(t *testing.T) {
	c := contactsCatalog(t)
	s := NewConcurrentStore()
	const principals, goroutines = 8, 16
	policies := map[string]map[string][]string{
		"wall": {"W1": {"V1"}, "W2": {"V3"}},
		"all":  {"all": {"V1", "V2", "V3", "V6", "V7"}},
	}
	for i := 0; i < principals; i++ {
		for prefix, parts := range policies {
			p, err := New(c, parts)
			if err != nil {
				t.Fatal(err)
			}
			s.SetPolicy(fmt.Sprintf("%s%d", prefix, i), p)
		}
	}
	l := label.NewLabeler(c)
	var labels []label.Label
	for _, src := range []string{"Q(x) :- M(x, y)", "Q(x, y) :- M(x, y)", "Q(p) :- C(p, e, r)", "Q(x, z) :- C(x, y, z)"} {
		lbl, err := l.Label(cq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, lbl)
	}

	// admitted[g] maps each principal goroutine g submitted for to the join
	// of the labels it saw admitted.
	admitted := make([]map[string]label.Label, goroutines)
	var wg sync.WaitGroup
	for g := range admitted {
		admitted[g] = map[string]label.Label{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lbl := labels[(g+i)%len(labels)]
				for prefix := range policies {
					principal := fmt.Sprintf("%s%d", prefix, g%principals)
					d, err := s.Submit(principal, lbl)
					if err != nil {
						t.Error(err)
						return
					}
					if d.Allowed {
						admitted[g][principal] = admitted[g][principal].Join(lbl)
					}
					if err := s.Do(principal, func(m *Monitor) { m.Check(lbl) }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var everything label.Label
	for _, lbl := range labels {
		everything = everything.Join(lbl)
	}
	for i := 0; i < principals; i++ {
		for prefix := range policies {
			principal := fmt.Sprintf("%s%d", prefix, i)
			var want label.Label
			for _, seen := range admitted {
				want = want.Join(seen[principal])
			}
			var cum label.Label
			var live []string
			if err := s.Do(principal, func(m *Monitor) { cum, live = m.Cumulative(), m.LiveNames() }); err != nil {
				t.Fatal(err)
			}
			if !cum.EquivTo(want) {
				t.Errorf("%s: cumulative %s, want the join of its admitted labels %s", principal, cum.Render(c), want.Render(c))
			}
			// Both sides of the wall were submitted, so it chose one; the
			// all-views session admits everything.
			if prefix == "wall" && len(live) != 1 {
				t.Errorf("%s: live = %v, want exactly one surviving partition", principal, live)
			}
			if prefix == "all" && !want.EquivTo(everything) {
				t.Errorf("%s: admitted %s, want every label submitted", principal, want.Render(c))
			}
		}
	}
}
