//go:build !race

package disclosure

import (
	"bytes"
	"testing"

	"repro/internal/cq"
	"repro/internal/engine"
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

// TestMonitorSettledZeroAlloc gates the follower's local-admit check: a
// read of the session under its monitor lock, on every would-be admit a
// leased replica sees, that allocates nothing whether it settles the label
// or not.
func TestMonitorSettledZeroAlloc(t *testing.T) {
	sys := figure1System(t)
	pol, err := NewPolicy(sys.Catalog(), map[string][]string{"times": {"V2"}, "contacts": {"V3"}})
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := sys.Label(MustParse("Free(t) :- Meetings(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(pol)
	if _, ok := m.Settled(admitted); ok {
		t.Fatal("a fresh session settles a label that would retire a partition")
	}
	if dec := m.Submit(admitted); !dec.Allowed || !dec.Changed {
		t.Fatalf("first admit = %+v, want an allowed transition", dec)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if dec, ok := m.Settled(admitted); !ok || !dec.Allowed || len(dec.Live) != 1 {
			t.Fatalf("Settled after the admit = (%+v, %v), want the repeated admit", dec, ok)
		}
	}); allocs != 0 {
		t.Errorf("Settled allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPolicyNewAllocs gates the cost of building a policy — what every
// policy install, every logged policy replayed at recovery and every
// policy a follower applies pays. Each security view's label is computed
// once, when the catalog is built, so a partition's label is lookups and
// one Normalize. The counts are exact: the partition-name list, the
// policy, per partition the view list, the atom list, the normalized label
// and the copy of the view names, and each growth of the partition slice
// (2 + 4 + 1 for one partition, 2 + 12 + 3 for three). When every install
// relabeled its views with the generic rewritability check these were
// 6,010 and 6,078.
func TestPolicyNewAllocs(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	all, wall := fbPolicies(cat)
	for _, tc := range []struct {
		name  string
		parts map[string][]string
		want  float64
	}{{"all-views", all, 7}, {"wall", wall, 17}} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := NewPolicy(cat, tc.parts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s policy: NewPolicy allocates %.1f objects, want exactly %.0f", tc.name, allocs, tc.want)
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

// TestColdPathAllocs gates what a never-seen template costs before it is
// labeled and after. Its preparation — System.Prepare of a text the memo
// has not seen — parses it into one term array, interns it once and keeps
// that form, so every text allocates exactly 7 objects whatever its atoms:
// the text's string, the query, its body, its terms, its key, the prepared
// query with its form, and the form's ids. Its plan compile reads the
// canonical isomorph from that form and lays each kind of step column out
// in one array: a plan-cache miss on an empty database — the compile and
// the empty answer — averages 27 over the pool. Before the form was kept,
// preparation was 8 + 1 + 1 for a typical template (the parse with a term
// slice per atom, the key, the prepared query) besides the string, 12 on
// average over this pool, and a compile 119 (interning the query again for
// cq.Canonical, numbering it through two string maps, a slice per step
// column list): 129 for the miss here.
func TestColdPathAllocs(t *testing.T) {
	texts := coldTemplates(t, 300)
	sys := figure1System(t)
	for _, src := range texts {
		// Texts the memo has not seen: the template behind 0 to 20 spaces.
		var unseen [21][]byte
		for n := range unseen {
			unseen[n] = append(bytes.Repeat([]byte{' '}, n), src...)
		}
		n := 0
		allocs := testing.AllocsPerRun(len(unseen)-1, func() {
			if _, err := sys.Prepare(unseen[n]); err != nil {
				t.Fatal(err)
			}
			n++
		})
		if allocs != 7 {
			t.Fatalf("preparing %s allocates %.1f objects, want exactly 7", src, allocs)
		}
	}
	ps := make([]*Prepared, len(texts))
	for i, src := range texts {
		ps[i], _ = cq.NewMemo().Prepare(src)
	}
	db := engine.NewDatabase(fb.Schema())
	snap := db.Snapshot()
	i := 0
	allocs := testing.AllocsPerRun(len(ps)-1, func() {
		if _, err := db.EvalCanonicalAt(snap, ps[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 27 {
		t.Fatalf("a plan-cache miss on an empty database allocates %.1f objects on average, want ≤ 27", allocs)
	}
}
