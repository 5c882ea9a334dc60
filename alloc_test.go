//go:build !race

package disclosure

import (
	"testing"

	"repro/internal/fb"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestSubmitObsZeroAlloc gates the observability layer's allocation cost:
// an instrumented Submit must allocate exactly as much as a Submit with
// metrics disabled — the counters, histograms and stage traces all live
// on the stack or in preallocated collector state. The file is excluded
// under -race because the race runtime adds allocations of its own.
func TestSubmitObsZeroAlloc(t *testing.T) {
	run := func(reg *obs.Registry) float64 {
		sys := figure1System(t)
		sys.mets = newSystemMetrics(reg)
		if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
			t.Fatal(err)
		}
		refusedQ := MustParse("Q1(x) :- Meetings(x, 'Cathy')")
		sys.Submit("app", refusedQ) // warm the label cache
		return testing.AllocsPerRun(500, func() {
			sys.Submit("app", refusedQ)
		})
	}
	disabled := run(obs.Disabled)
	instrumented := run(obs.NewRegistry())
	if instrumented > disabled {
		t.Fatalf("instrumented Submit allocates %.1f allocs/op, disabled %.1f — the obs layer must add zero",
			instrumented, disabled)
	}
}

// TestMonitorNoChangeZeroAlloc gates the reference monitor's steady
// state: a decision that changes nothing — a refusal, or an admit that
// retires no partition and discloses nothing new — reuses the monitor's
// scratch bitmap and its cached live names and skips the cumulative join,
// so it allocates nothing. Only the at most (#partitions + #label atoms)
// transitions of a session may allocate.
func TestMonitorNoChangeZeroAlloc(t *testing.T) {
	sys := figure1System(t)
	pol, err := NewPolicy(sys.Catalog(), map[string][]string{"times": {"V2"}, "contacts": {"V3"}})
	if err != nil {
		t.Fatal(err)
	}
	label := func(src string) Label {
		t.Helper()
		lbl, err := sys.Label(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return lbl
	}
	admitted, refused := label("Free(t) :- Meetings(t, p)"), label("Q(p, e) :- Contacts(p, e, r)")
	m := NewMonitor(pol)
	if dec := m.Submit(admitted); !dec.Allowed || !dec.Changed {
		t.Fatalf("first admit = %+v, want an allowed transition", dec)
	}
	for name, lbl := range map[string]Label{"repeated admit": admitted, "refusal": refused} {
		want := name == "repeated admit"
		allocs := testing.AllocsPerRun(500, func() {
			if dec := m.Submit(lbl); dec.Allowed != want || dec.Changed {
				t.Fatalf("%s = %+v, want allowed=%v and unchanged", name, dec, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestLabelMissAllocs gates the label-cache-miss path: labeling a
// never-seen template — fold, dissection, view matching — runs on the
// query's interned form in pooled scratch, reads the fold's alive-mask and
// never materializes the core as a query, so what a call allocates is the
// label it returns (plus a pool refill after a GC). The templates are what
// the repository benchmark's cold_templates workload sends. Before the miss
// path ran on interned forms this was 102 allocations on average and 457 at
// worst.
func TestLabelMissAllocs(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabeler(cat)
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 2013, MaxSubqueries: 5, FriendScopesMarkIsFriend: true})
	for _, q := range g.Batch(300) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := l.Label(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Fatalf("labeling %s allocates %.1f objects per call, want ≤ 8", q, allocs)
		}
	}
}
