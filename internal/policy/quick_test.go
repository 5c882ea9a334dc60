package policy

import (
	"fmt"
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

// policyOf builds a policy straight from partition labels, named W1, W2, …
func policyOf(labels []label.Label) *Policy {
	p := &Policy{}
	for i, l := range labels {
		p.parts = append(p.parts, Partition{Name: fmt.Sprintf("W%d", i+1), Label: l})
	}
	return p
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
		pol := policyOf(labels)
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
		m := NewMonitor(policyOf([]label.Label{randomLabel(rng), randomLabel(rng)}))
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

// TestMonitorSettled property-checks Settled on random policies and label
// streams: it holds exactly when Submit would admit the label and change
// nothing, it reports the decision Submit then returns, and a label an
// earlier state of the session settles, every later state settles too —
// the property that lets a replica holding a prefix of a session's
// transitions admit for its primary.
func TestMonitorSettled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		labels := make([]label.Label, 1+rng.Intn(4))
		for i := range labels {
			labels[i] = randomLabel(rng)
		}
		pol := policyOf(labels)
		m, earlier := NewMonitor(pol), NewMonitor(pol)
		type state struct {
			live []string
			cum  label.Label
		}
		var past []state
		for step := 0; step < 30; step++ {
			q := randomLabel(rng)
			if rng.Intn(2) == 0 {
				q = m.Cumulative() // a label every admit so far covers
			}
			settled, ok := m.Settled(q)
			for _, s := range past {
				if err := earlier.Restore(s.live, s.cum); err != nil {
					t.Fatal(err)
				}
				if _, was := earlier.Settled(q); was && !ok {
					t.Fatalf("trial %d step %d: an earlier state (%v, %v) settles the label, the session now (%v) does not", trial, step, s.live, s.cum, m.LiveNames())
				}
			}
			past = append(past, state{m.LiveNames(), m.Cumulative()})
			d := m.Submit(q)
			if ok != (d.Allowed && !d.Changed) {
				t.Fatalf("trial %d step %d: Settled=%v, Submit = %+v", trial, step, ok, d)
			}
			if ok && !reflect.DeepEqual(settled, d) {
				t.Fatalf("trial %d step %d: Settled's decision %+v, Submit's %+v", trial, step, settled, d)
			}
		}
	}
}
