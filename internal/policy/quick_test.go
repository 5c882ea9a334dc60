package policy

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/label"
)

// randomAtomLabel builds an arbitrary packed atom label over a small
// relation/view vocabulary.
func randomAtomLabel(rng *rand.Rand) label.AtomLabel {
	a := label.NewAtomLabel(uint32(1+rng.Intn(3)), 8)
	for b := 0; b < 8; b++ {
		if rng.Intn(3) == 0 {
			a.SetBit(b)
		}
	}
	if a.Empty() {
		a.SetBit(rng.Intn(8))
	}
	return a
}

func randomLabel(rng *rand.Rand) label.Label {
	n := 1 + rng.Intn(3)
	l := label.Label{}
	for i := 0; i < n; i++ {
		l.Atoms = append(l.Atoms, randomAtomLabel(rng))
	}
	return l.Normalize()
}

// TestMonitorInvariants property-checks the reference monitor against its
// specification on random policies and label streams:
//
//  1. Soundness: after any accepted prefix, the join of all accepted
//     labels is below some partition (the Section 6.2 invariant).
//  2. Refusals never change observable state.
//  3. The liveness set never grows.
//  4. A stateless (1-partition) monitor's decisions are history-free.
//  5. Decision.Changed is exact: set iff the live set or the cumulative
//     label moved, and the cumulative label always equals the plain join
//     of the accepted labels (skipping the join of a label already below
//     it is invisible).
//  6. Replaying only the changed decisions, as absolute states through
//     Restore, reproduces the session — the durability layer's contract.
func TestMonitorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nPart := 1 + rng.Intn(4)
		labels := make([]label.Label, nPart)
		for i := range labels {
			labels[i] = randomLabel(rng)
		}
		pol, err := FromLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(pol)
		cum := label.BottomLabel()
		prevLive := m.LiveCount()
		stateless := NewMonitor(pol)
		replayed := NewMonitor(pol)

		for step := 0; step < 30; step++ {
			q := randomLabel(rng)
			liveBefore, cumBefore := m.LiveNames(), m.Cumulative()
			d := m.Submit(q)
			moved := !slices.Equal(liveBefore, m.LiveNames()) || !reflect.DeepEqual(cumBefore, m.Cumulative())
			if d.Changed != moved || (d.Changed && !d.Allowed) || !slices.Equal(d.Live, m.LiveNames()) {
				t.Fatalf("trial %d step %d: decision %+v, state moved=%v, live now %v", trial, step, d, moved, m.LiveNames())
			}
			if d.Changed {
				if err := replayed.Restore(d.Live, m.Cumulative()); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(replayed.LiveNames(), m.LiveNames()) || !reflect.DeepEqual(replayed.Cumulative(), m.Cumulative()) {
				t.Fatalf("trial %d step %d: replaying the transitions diverged from the session", trial, step)
			}
			if d.Allowed {
				cum = cum.Join(q)
				if !reflect.DeepEqual(cum, m.Cumulative()) {
					t.Fatalf("trial %d step %d: cumulative label %v, plain join gives %v", trial, step, m.Cumulative(), cum)
				}
				ok := false
				for _, p := range pol.Partitions() {
					if cum.BelowEq(p.Label) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d step %d: invariant violated: cumulative label above every partition", trial, step)
				}
			} else {
				after := m.LiveNames()
				if len(after) != len(liveBefore) {
					t.Fatalf("refusal changed live set: %v -> %v", liveBefore, after)
				}
				for i := range after {
					if after[i] != liveBefore[i] {
						t.Fatalf("refusal changed live set: %v -> %v", liveBefore, after)
					}
				}
			}
			if m.LiveCount() > prevLive {
				t.Fatal("liveness set grew")
			}
			prevLive = m.LiveCount()

			if pol.Stateless() {
				// History-free: Check on a fresh monitor agrees.
				if stateless.Check(q) != d.Allowed {
					t.Fatalf("stateless monitor decision depends on history")
				}
			}
		}
	}
}

// TestMonitorAcceptedImpliesCheck: Submit accepts exactly when Check
// reports admissibility.
func TestMonitorAcceptedImpliesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		labels := []label.Label{randomLabel(rng), randomLabel(rng)}
		pol, err := FromLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(pol)
		for step := 0; step < 20; step++ {
			q := randomLabel(rng)
			want := m.Check(q)
			got := m.Submit(q).Allowed
			if want != got {
				t.Fatalf("Check=%v but Submit=%v", want, got)
			}
		}
	}
}
