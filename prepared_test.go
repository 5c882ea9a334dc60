package disclosure

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/label"
	"repro/internal/obs"
)

// memoized prepares a text until the memo serves it: first sighting,
// admission, hit.
func memoized(t *testing.T, sys *System, src string) *Prepared {
	t.Helper()
	var p *Prepared
	hits := sys.Stats().Memo.Hits
	for i := 0; i < 3; i++ {
		var err error
		if p, err = sys.Prepare([]byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Stats().Memo.Hits - hits; got != 1 {
		t.Fatalf("three sightings of %q hit the memo %d times, want 1", src, got)
	}
	return p
}

// TestMemoHoldsNoState: between two sightings of one text the data, the
// policy and the session move; the memoized submission's decision, rows and
// error move exactly as those of a submission parsed from scratch on a
// second System that never used its memo. The memo holds nothing derived
// from state, so there is nothing in it to go stale.
func TestMemoHoldsNoState(t *testing.T) {
	const times, contacts = "Free(t) :- Meetings(t, p)", "Who(p, e) :- Contacts(p, e, r)"
	withMemo, parsed := figure1System(t), figure1System(t)
	prep := map[string]*Prepared{times: memoized(t, withMemo, times), contacts: memoized(t, withMemo, contacts)}
	step := func(what, src string) {
		t.Helper()
		got := withMemo.SubmitPrepared("app", []*Prepared{prep[src]})[0]
		dec, rows, err := parsed.Submit("app", MustParse(src))
		if !reflect.DeepEqual(got.Decision, dec) || !reflect.DeepEqual(got.Answer.Rows(), rows) ||
			fmt.Sprint(got.Err) != fmt.Sprint(err) || errors.Is(got.Err, ErrNoPolicy) != errors.Is(err, ErrNoPolicy) {
			t.Fatalf("%s, %s:\n memoized (%+v, %v, %v)\n   parsed (%+v, %v, %v)", what, src, got.Decision, got.Answer.Rows(), got.Err, dec, rows, err)
		}
	}
	both := func(f func(sys *System) error) {
		t.Helper()
		for _, sys := range []*System{withMemo, parsed} {
			if err := f(sys); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("no policy yet", times)
	both(func(sys *System) error {
		return sys.SetPolicy("app", map[string][]string{"calendar": {"V1", "V2"}, "contacts": {"V3"}})
	})
	step("fresh session", times) // admitted, three rows, retires contacts
	step("walled off", contacts) // refused, with the session's explanation
	both(func(sys *System) error { return sys.Insert("Meetings", "14", "Ann") })
	step("after a load", times) // admitted, four rows
	both(func(sys *System) error { return sys.SetPolicy("app", map[string][]string{"contacts": {"V3"}}) })
	step("after a re-install", times)    // refused now
	step("after a re-install", contacts) // admitted now
	both(func(sys *System) error { return sys.RemovePolicy("app") })
	step("after removal", contacts)
	if st := withMemo.Stats().Memo; st.Entries != 2 || st.Evictions != 0 {
		t.Errorf("memo after the history: %s, want the two texts resident", st)
	}
	if st := parsed.Stats().Memo; st.Hits+st.Misses != 0 {
		t.Errorf("the reference System used its memo: %s", st)
	}
}

// TestPreparedSharedAcrossSubmitters: eight goroutines submit the same 50
// memoized texts as two principals, singly and in batches, with auditing on
// and the label cache small enough to keep relabeling — every stage that
// reads a prepared query runs against entries other goroutines are reading,
// and none may write to one. Run with -race.
func TestPreparedSharedAcrossSubmitters(t *testing.T) {
	sys := figure1System(t)
	audit, err := obs.OpenAuditLog(filepath.Join(t.TempDir(), "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	sys.SetAudit(audit, 0)
	sys.labeler = label.NewCachedLabeler(label.NewLabeler(sys.cat), 16)
	for _, p := range []string{"p0", "p1"} {
		if err := sys.SetPolicy(p, map[string][]string{"calendar": {"V1", "V2"}, "contacts": {"V3"}}); err != nil {
			t.Fatal(err)
		}
	}
	texts := make([]string, 50)
	want := make([]*Prepared, len(texts))
	for i := range texts {
		texts[i] = fmt.Sprintf("Q%d(t) :- Meetings(t, p), Meetings(t, 'c%d')", i, i)
		if i%2 == 1 {
			texts[i] = fmt.Sprintf("P%d(p, e) :- Contacts(p, e, r), Contacts(p, e2, 'r%d')", i, i)
		}
		want[i] = memoized(t, sys, texts[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			principal := fmt.Sprintf("p%d", g%2)
			for round := 0; round < 20; round++ {
				var batch []*Prepared
				for i, src := range texts {
					p, err := sys.Prepare([]byte(src))
					if err != nil || p != want[i] {
						t.Errorf("text %d: prepared %p (err %v), want the memoized %p", i, p, err, want[i])
						return
					}
					if batch = append(batch, p); len(batch) < 1+i%3 {
						continue
					}
					for _, r := range sys.SubmitPrepared(principal, batch) {
						if r.Err != nil {
							t.Errorf("submission failed: %v", r.Err)
							return
						}
					}
					batch = batch[:0]
				}
			}
		}()
	}
	wg.Wait()
	for i, p := range want {
		if p.Src != texts[i] || p.Key != PrepareQuery(MustParse(texts[i])).Key {
			t.Fatalf("memoized entry %d changed under load: %+v", i, p)
		}
	}
}
