package policy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/label"
	"repro/internal/schema"
)

// contactsCatalog builds the catalog used by Examples 6.2/6.3: full views
// over Meetings and Contacts plus the Contacts projections.
func contactsCatalog(t *testing.T) *label.Catalog {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("M", "time", "person"),
		schema.MustRelation("C", "person", "email", "position"),
	)
	return label.MustCatalog(s,
		cq.MustParse("V1(x, y) :- M(x, y)"),
		cq.MustParse("V2(x) :- M(x, y)"),
		cq.MustParse("V3(x, y, z) :- C(x, y, z)"),
		cq.MustParse("V6(x, y) :- C(x, y, z)"),
		cq.MustParse("V7(x, z) :- C(x, y, z)"),
	)
}

func TestChineseWallExample(t *testing.T) {
	// Example 6.2: W1 = {V1} (all of Meetings), W2 = {V3} (all of
	// Contacts). Alice may access either relation but not both.
	c := contactsCatalog(t)
	p, err := New(c, map[string][]string{
		"W1": {"V1"},
		"W2": {"V3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	qm := NewQueryMonitor(label.NewLabeler(c), p)

	// V6 (projection of Contacts) is accepted: {V6} ≼ W2.
	d, err := qm.Submit(cq.MustParse("Q6(x, y) :- C(x, y, z)"))
	if err != nil || !d.Allowed {
		t.Fatalf("V6 refused: %+v, %v", d, err)
	}
	// After V6, only W2 remains consistent (Example 6.3's bit vector).
	if got := qm.Monitor().LiveNames(); len(got) != 1 || got[0] != "W2" {
		t.Errorf("live = %v, want [W2]", got)
	}
	// V7 is also accepted: {V6, V7} ≼ W2.
	d, err = qm.Submit(cq.MustParse("Q7(x, z) :- C(x, y, z)"))
	if err != nil || !d.Allowed {
		t.Fatalf("V7 refused: %+v, %v", d, err)
	}
	if got := qm.Monitor().LiveNames(); len(got) != 1 || got[0] != "W2" {
		t.Errorf("live after V7 = %v, want [W2]", got)
	}
	// V2 (Meetings times) is refused: {V6, V7, V2} is below neither W1 nor
	// W2 — and the live set is unchanged by the refusal.
	d, err = qm.Submit(cq.MustParse("Q2(x) :- M(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Error("V2 must be refused after Contacts access (Chinese Wall)")
	}
	if got := qm.Monitor().LiveNames(); len(got) != 1 || got[0] != "W2" {
		t.Errorf("live after refusal = %v, want [W2] (state unchanged)", got)
	}
	// Contacts queries continue to be allowed after the refusal.
	d, _ = qm.Submit(cq.MustParse("Q3(x, y, z) :- C(x, y, z)"))
	if !d.Allowed {
		t.Error("full Contacts still ≼ W2 and must be allowed")
	}
}

func TestChineseWallOtherBranch(t *testing.T) {
	// Taking the Meetings branch first retires W2 instead.
	c := contactsCatalog(t)
	p, err := New(c, map[string][]string{"W1": {"V1"}, "W2": {"V3"}})
	if err != nil {
		t.Fatal(err)
	}
	qm := NewQueryMonitor(label.NewLabeler(c), p)
	if d, _ := qm.Submit(cq.MustParse("Q(x) :- M(x, y)")); !d.Allowed {
		t.Fatal("Meetings projection refused")
	}
	if got := qm.Monitor().LiveNames(); len(got) != 1 || got[0] != "W1" {
		t.Errorf("live = %v, want [W1]", got)
	}
	if d, _ := qm.Submit(cq.MustParse("Q(x, y, z) :- C(x, y, z)")); d.Allowed {
		t.Error("Contacts must now be refused")
	}
}

func TestStatelessPolicy(t *testing.T) {
	// Section 1.1's policy: only V2 (meeting time slots) may be disclosed.
	c := contactsCatalog(t)
	p, err := New(c, map[string][]string{"only-times": {"V2"}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stateless() {
		t.Error("single-partition policy should be stateless")
	}
	qm := NewQueryMonitor(label.NewLabeler(c), p)
	cases := []struct {
		q       string
		allowed bool
	}{
		{"Q(x) :- M(x, y)", true},                      // times only
		{"Q() :- M(x, y)", true},                       // nonemptiness
		{"Q1(x) :- M(x, 'Cathy')", false},              // needs persons (paper: rejected)
		{"Q2(x) :- M(x, y), C(y, w, 'Intern')", false}, // needs V1, V3 (paper: rejected)
		{"Q(x, y) :- M(x, y)", false},                  // full table
		{"Q(p) :- C(p, e, r)", false},                  // other relation
		{"Qr(x) :- M(x, y), M(x, z)", true},            // folds to times
	}
	for _, tc := range cases {
		d, err := qm.Submit(cq.MustParse(tc.q))
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if d.Allowed != tc.allowed {
			t.Errorf("%s: allowed=%v, want %v", tc.q, d.Allowed, tc.allowed)
		}
	}
	// Stateless: decisions never change with history.
	d, _ := qm.Submit(cq.MustParse("Q(x) :- M(x, y)"))
	if !d.Allowed {
		t.Error("stateless policy must keep allowing admissible queries")
	}
}

// TestCumulativeEquivalence verifies the Section 6.2 claim: for a stateless
// (single-partition) policy, per-query checking and cumulative checking
// make identical decisions.
func TestCumulativeEquivalence(t *testing.T) {
	c := contactsCatalog(t)
	p, err := New(c, map[string][]string{"w": {"V2", "V6"}})
	if err != nil {
		t.Fatal(err)
	}
	l := label.NewLabeler(c)
	queries := []string{
		"Qa(x) :- M(x, y)",
		"Qb(x, y) :- C(x, y, z)",
		"Qc(x) :- C(x, y, z)",
		"Qd(x, y) :- M(x, y)", // inadmissible
		"Qe() :- M(x, y)",
		"Qf(p, e) :- C(p, e, z)",
	}
	// Model 1: stateless per-query decisions.
	stateless := NewMonitor(p)
	var acceptedLabels []label.Label
	var decisions1 []bool
	for _, src := range queries {
		lbl, err := l.Label(cq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		ok := stateless.Check(lbl)
		decisions1 = append(decisions1, ok)
		if ok {
			acceptedLabels = append(acceptedLabels, lbl)
		}
	}
	// Model 2: cumulative — the union of all accepted labels plus the new
	// one must be below the partition.
	var decisions2 []bool
	cum := label.BottomLabel()
	for _, src := range queries {
		lbl, _ := l.Label(cq.MustParse(src))
		joined := cum.Join(lbl)
		ok := joined.BelowEq(p.Partitions()[0].Label)
		decisions2 = append(decisions2, ok)
		if ok {
			cum = joined
		}
	}
	for i := range decisions1 {
		if decisions1[i] != decisions2[i] {
			t.Errorf("query %d (%s): stateless=%v cumulative=%v", i, queries[i], decisions1[i], decisions2[i])
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	c := contactsCatalog(t)
	if _, err := New(c, nil); err == nil {
		t.Error("empty policy accepted")
	}
	if _, err := New(c, map[string][]string{"w": {"NoSuchView"}}); err == nil {
		t.Error("unknown view accepted")
	}
	p, err := New(c, map[string][]string{"b": {"V1"}, "a": {"V3"}})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic name order.
	parts := p.Partitions()
	if parts[0].Name != "a" || parts[1].Name != "b" {
		t.Errorf("partition order = %v", parts)
	}
	if !strings.Contains(p.String(), "a: [V3]") {
		t.Errorf("String = %s", p)
	}
}

func TestMonitorReset(t *testing.T) {
	c := contactsCatalog(t)
	p, _ := New(c, map[string][]string{"W1": {"V1"}, "W2": {"V3"}})
	m := NewMonitor(p)
	l := label.NewLabeler(c)
	lbl, _ := l.Label(cq.MustParse("Q(x) :- M(x, y)"))
	if d := m.Submit(lbl); !d.Allowed {
		t.Fatal("refused")
	}
	if m.LiveCount() != 1 {
		t.Errorf("LiveCount = %d", m.LiveCount())
	}
	m.Reset()
	if m.LiveCount() != 2 {
		t.Errorf("LiveCount after reset = %d", m.LiveCount())
	}
}

func TestTopLabelAlwaysRefused(t *testing.T) {
	c := contactsCatalog(t)
	p, _ := New(c, map[string][]string{"w": {"V1", "V3"}})
	qm := NewQueryMonitor(label.NewLabeler(c), p)
	d, err := qm.Submit(cq.MustParse("Q(x) :- Uncovered(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Error("⊤-labeled query must be refused by any view-based policy")
	}
}

func TestExplain(t *testing.T) {
	c := contactsCatalog(t)
	p, _ := New(c, map[string][]string{"W1": {"V1"}, "W2": {"V3"}})
	qm := NewQueryMonitor(label.NewLabeler(c), p)
	out, err := qm.Explain(cq.MustParse("Q(x) :- M(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"W1", "W2", "label:", "decision: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

func TestTrace(t *testing.T) {
	c := contactsCatalog(t)
	p, _ := New(c, map[string][]string{"w": {"V2"}})
	qm := NewQueryMonitor(label.NewLabeler(c), p)
	var traced int
	qm.Trace = func(q *cq.Query, lbl label.Label, d Decision) { traced++ }
	qm.Submit(cq.MustParse("Q(x) :- M(x, y)"))
	qm.Submit(cq.MustParse("Q(x, y) :- M(x, y)"))
	if traced != 2 {
		t.Errorf("traced %d decisions, want 2", traced)
	}
}

func TestMonitorCumulativeReport(t *testing.T) {
	c := contactsCatalog(t)
	p, _ := New(c, map[string][]string{"W1": {"V1"}, "W2": {"V3"}})
	m := NewMonitor(p)
	l := label.NewLabeler(c)

	lblTimes, _ := l.Label(cq.MustParse("Q(x) :- M(x, y)"))
	lblFull, _ := l.Label(cq.MustParse("Q(x, y) :- M(x, y)"))
	lblContacts, _ := l.Label(cq.MustParse("Q(p) :- C(p, e, r)"))

	// An explanation renders the cumulative label once per transition and
	// keeps the text; it must follow the label through every way it moves.
	rendered := func(when string) {
		t.Helper()
		if e := m.Explanation(c, "Q", lblContacts); e.Cumulative != m.Cumulative().Render(c) {
			t.Errorf("%s: explanation says cumulative %q, the monitor holds %q", when, e.Cumulative, m.Cumulative().Render(c))
		}
	}
	if !m.Cumulative().IsBottom() {
		t.Error("fresh monitor should have ⊥ cumulative disclosure")
	}
	rendered("fresh")
	var allowed []bool
	allowed = append(allowed, m.Submit(lblTimes).Allowed) // accepted under W1
	rendered("after an admit")
	allowed = append(allowed, m.Submit(lblContacts).Allowed) // refused: W2 already retired
	rendered("after a refusal")
	allowed = append(allowed, m.Submit(lblFull).Allowed) // accepted under W1
	rendered("after a growing admit")

	if fmt.Sprint(allowed) != "[true false true]" {
		t.Errorf("decisions = %v, want [true false true]", allowed)
	}
	// Cumulative disclosure joins only accepted labels: equivalent to the
	// full-Meetings label (times ≼ full).
	if !m.Cumulative().EquivTo(lblFull) {
		t.Errorf("cumulative = %s, want ≡ full-Meetings", m.Cumulative().Render(c))
	}
	if cum := m.Cumulative().Render(c); !strings.Contains(cum, "V1") || strings.Contains(cum, "V3") {
		t.Errorf("cumulative renders as %q, want V1 and no V3", cum)
	}
	if live := m.LiveNames(); fmt.Sprint(live) != "[W1]" {
		t.Errorf("live = %v, want [W1]", live)
	}
	m.Reset()
	if !m.Cumulative().IsBottom() || m.LiveCount() != 2 {
		t.Error("Reset did not clear the session record")
	}
	rendered("after Reset")
	if err := m.Restore([]string{"W1"}, lblTimes); err != nil {
		t.Fatal(err)
	}
	rendered("after Restore")
}
