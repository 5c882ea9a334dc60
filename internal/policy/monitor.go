package policy

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cq"
	"repro/internal/label"
)

// Decision is the outcome of a reference-monitor check.
type Decision struct {
	Allowed bool
	// Partition names still consistent after the query (when allowed) or
	// the names that were live before the refusal (when refused). The slice
	// is shared with the monitor and with other decisions of the same
	// session state; treat it as read-only.
	Live []string
	// Changed reports whether the decision moved the session state — it
	// retired a partition or grew the cumulative disclosure. Refusals never
	// do, and an admit does at most (#partitions + #label atoms) times per
	// session; every other decision is a pure read, which is what lets the
	// durability layer log transitions instead of traffic.
	Changed bool
	// Refusal is the structured account of a refusal, built from the
	// session state the decision was made on — in the same monitor
	// critical section, so no later submission can show through it. It is
	// nil on admitted decisions, and on decisions taken straight from
	// Monitor.Submit, which allocates nothing: the caller that holds the
	// monitor attaches it (Monitor.Explanation).
	Refusal *Explanation
}

// Monitor is a stateful reference monitor for one principal: it enforces
// the invariant that the cumulative disclosure of all answered queries
// remains below some policy partition. Consistency is tracked with one bit
// per partition (Example 6.3); the monitor never re-examines query history.
//
// Monitor is not safe for concurrent use; wrap it or shard per principal.
type Monitor struct {
	policy *Policy
	live   []uint64 // one bit per partition
	next   []uint64 // Submit's scratch for the surviving set; swapped with live on a transition
	nlive  int
	names  []string // live partition names, rebuilt (never edited) when live changes
	// cum is the join of all accepted labels — the session's cumulative
	// disclosure, maintained for reporting (Section 2.2's "keep track of
	// cumulative information disclosure across multiple queries"). It is
	// not consulted for decisions; the liveness bits already encode
	// everything the policy needs (Section 6.2). It is always normalized.
	cum label.Label
	// cumText is cum as Explanation renders it, filled by the first
	// refusal after a transition and emptied wherever cum moves (a rendered
	// label is never empty), so a session's refusals share one rendering.
	cumText  string
	accepted int
	refused  int
}

// NewMonitor creates a monitor with every partition initially consistent.
func NewMonitor(p *Policy) *Monitor {
	words := (p.Len() + 63) / 64
	m := &Monitor{policy: p, live: make([]uint64, words), next: make([]uint64, words)}
	m.Reset()
	return m
}

// Restore installs an absolute session state — the live partitions and the
// cumulative disclosure — keeping the policy and the decision counts. It
// is how a logged state transition is replayed: installing the same state
// twice is a no-op. Unknown partition names are an error and leave the
// monitor unchanged.
func (m *Monitor) Restore(live []string, cum label.Label) error {
	clear(m.next)
	count := 0
	for _, name := range live {
		i := slices.IndexFunc(m.policy.parts, func(p Partition) bool { return p.Name == name })
		if i < 0 {
			return fmt.Errorf("policy: restoring monitor: unknown partition %q", name)
		}
		if m.next[i/64]&(1<<(uint(i)%64)) == 0 {
			m.next[i/64] |= 1 << (uint(i) % 64)
			count++
		}
	}
	m.setLive(count)
	m.cum, m.cumText = cum, ""
	return nil
}

// setLive makes the scratch set the live set.
func (m *Monitor) setLive(count int) {
	m.live, m.next = m.next, m.live
	m.nlive = count
	m.names = nil
	for i, part := range m.policy.parts {
		if m.isLive(i) {
			m.names = append(m.names, part.Name)
		}
	}
}

// Policy returns the monitor's policy.
func (m *Monitor) Policy() *Policy { return m.policy }

// LiveCount returns the number of partitions still consistent with the
// answered queries.
func (m *Monitor) LiveCount() int { return m.nlive }

// LiveNames returns the names of the live partitions.
func (m *Monitor) LiveNames() []string { return slices.Clone(m.names) }

func (m *Monitor) isLive(i int) bool { return m.live[i/64]&(1<<(uint(i)%64)) != 0 }

// Check reports whether answering a query with the given label would keep
// the policy invariant, without mutating monitor state.
func (m *Monitor) Check(l label.Label) bool {
	for i := range m.policy.parts {
		if m.isLive(i) && l.BelowEq(m.policy.parts[i].Label) {
			return true
		}
	}
	return false
}

// Submit decides a query with the given label. If some live partition
// dominates the label, the query is allowed and partitions inconsistent
// with it are retired; otherwise the query is refused and the state is left
// unchanged (the refusal algorithm of Section 6.2). A decision that changes
// nothing — a refusal, or an admit that retires no partition and discloses
// nothing new — allocates nothing.
func (m *Monitor) Submit(l label.Label) Decision {
	clear(m.next)
	count := 0
	for i := range m.policy.parts {
		if m.isLive(i) && l.BelowEq(m.policy.parts[i].Label) {
			m.next[i/64] |= 1 << (uint(i) % 64)
			count++
		}
	}
	if count == 0 {
		m.refused++
		return Decision{Allowed: false, Live: m.names}
	}
	m.accepted++
	changed := count != m.nlive
	if changed {
		m.setLive(count)
	}
	// cum is normalized, so joining a label already below it would
	// reproduce it atom for atom.
	if !l.BelowEq(m.cum) {
		m.cum, m.cumText = m.cum.Join(l), ""
		changed = true
	}
	return Decision{Allowed: true, Live: m.names, Changed: changed}
}

// Cumulative returns the join of all labels accepted so far — the
// session's total disclosure.
func (m *Monitor) Cumulative() label.Label { return m.cum }

// Stats returns the number of accepted and refused submissions.
func (m *Monitor) Stats() (accepted, refused int) { return m.accepted, m.refused }

// SetStats installs saved decision counts — the part of a checkpointed
// session Restore leaves alone.
func (m *Monitor) SetStats(accepted, refused int) { m.accepted, m.refused = accepted, refused }

// Report renders a session summary: counts, cumulative disclosure and the
// surviving partitions.
func (m *Monitor) Report(c *label.Catalog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "accepted %d, refused %d\n", m.accepted, m.refused)
	fmt.Fprintf(&b, "cumulative disclosure: %s\n", m.cum.Render(c))
	fmt.Fprintf(&b, "live partitions: %s\n", strings.Join(m.names, ", "))
	return b.String()
}

// Reset restores every partition to the live state and clears the
// cumulative-disclosure record (a new session).
func (m *Monitor) Reset() {
	clear(m.next)
	for i := 0; i < m.policy.Len(); i++ {
		m.next[i/64] |= 1 << (uint(i) % 64)
	}
	m.setLive(m.policy.Len())
	m.cum, m.cumText = label.BottomLabel(), ""
	m.accepted, m.refused = 0, 0
}

// QueryMonitor couples a monitor with a labeler, implementing the
// end-to-end reference monitor of Section 3.4: it labels each incoming
// conjunctive query and accepts or refuses it under the policy.
type QueryMonitor struct {
	labeler label.Labeler
	mon     *Monitor
	// Trace, when non-nil, receives one line per decision.
	Trace func(q *cq.Query, lbl label.Label, d Decision)
}

// NewQueryMonitor builds a query-level reference monitor.
func NewQueryMonitor(l label.Labeler, p *Policy) *QueryMonitor {
	return &QueryMonitor{labeler: l, mon: NewMonitor(p)}
}

// Monitor exposes the underlying label-level monitor.
func (qm *QueryMonitor) Monitor() *Monitor { return qm.mon }

// Submit labels the query and decides it. Labeling errors refuse the query
// and are returned.
func (qm *QueryMonitor) Submit(q *cq.Query) (Decision, error) {
	lbl, err := qm.labeler.Label(q)
	if err != nil {
		return Decision{Allowed: false}, fmt.Errorf("policy: labeling %s: %w", q.Name, err)
	}
	d := qm.mon.Submit(lbl)
	if qm.Trace != nil {
		qm.Trace(q, lbl, d)
	}
	return d, nil
}

// Explain renders a human-readable account of why a label is or is not
// currently admissible.
func (qm *QueryMonitor) Explain(q *cq.Query) (string, error) {
	lbl, err := qm.labeler.Label(q)
	if err != nil {
		return "", err
	}
	return qm.mon.ExplainLabel(qm.labeler.Catalog(), q.Name, lbl), nil
}

// PartitionStatus is one partition's row of an Explanation: whether the
// partition is still live in the session and whether it dominates
// (information-contains) the explained label.
type PartitionStatus struct {
	Name      string   `json:"name"`
	Views     []string `json:"views"`
	Live      bool     `json:"live"`
	Dominates bool     `json:"dominates"`
}

// Explanation is the structured account of how one query's label compares
// against a principal's policy and session state — the machine-readable
// refusal body a serving layer returns alongside (or instead of) the
// rendered text of ExplainLabel. Labels are rendered through the catalog
// (e.g. "{user_basic} ⊗ {friends_likes}"); ⊤ atoms render as "⊤", the
// empty label as "⊥".
type Explanation struct {
	// Query is the head name of the explained query.
	Query string `json:"query"`
	// Label is the query's disclosure label, rendered.
	Label string `json:"label"`
	// Admissible reports whether some live partition dominates the label —
	// i.e. whether Submit would accept the query right now.
	Admissible bool `json:"admissible"`
	// Cumulative is the session's total disclosure so far (the join of all
	// accepted labels), rendered.
	Cumulative string `json:"cumulative"`
	// Accepted and Refused are the session's decision counts so far.
	Accepted int `json:"accepted"`
	Refused  int `json:"refused"`
	// Partitions holds one status row per policy partition, in policy
	// order.
	Partitions []PartitionStatus `json:"partitions"`
}

// Offending returns the names of the live partitions that fail to dominate
// the label — the partitions standing between the query and admission. For
// an inadmissible label that is every live partition; for an admissible one
// it names the partitions the query would retire.
func (e Explanation) Offending() []string {
	var out []string
	for _, p := range e.Partitions {
		if p.Live && !p.Dominates {
			out = append(out, p.Name)
		}
	}
	return out
}

// Explanation builds the structured account of how a label compares against
// each policy partition and the session state, without moving the session.
// The partitions' view lists are the policy's own, shared by every
// explanation of it: read-only, like Decision.Live.
func (m *Monitor) Explanation(c *label.Catalog, name string, lbl label.Label) Explanation {
	if m.cumText == "" {
		m.cumText = m.cum.Render(c)
	}
	e := Explanation{
		Query:      name,
		Label:      lbl.Render(c),
		Admissible: m.Check(lbl),
		Cumulative: m.cumText,
		Accepted:   m.accepted,
		Refused:    m.refused,
		Partitions: make([]PartitionStatus, 0, len(m.policy.parts)),
	}
	for i, part := range m.policy.parts {
		e.Partitions = append(e.Partitions, PartitionStatus{
			Name:      part.Name,
			Views:     part.Views,
			Live:      m.isLive(i),
			Dominates: lbl.BelowEq(part.Label),
		})
	}
	return e
}

// ExplainLabel renders a human-readable account of how a label compares
// against each policy partition and whether it is currently admissible.
func (m *Monitor) ExplainLabel(c *label.Catalog, name string, lbl label.Label) string {
	return m.Explanation(c, name, lbl).String()
}

// String renders the explanation as text, one line per partition.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s\n  label: %s\n", e.Query, e.Label)
	for _, p := range e.Partitions {
		status := "retired"
		if p.Live {
			status = "live"
		}
		fmt.Fprintf(&b, "  partition %s (%s): label ≼ %v → %v\n", p.Name, status, p.Views, p.Dominates)
	}
	fmt.Fprintf(&b, "  decision: %v\n", e.Admissible)
	return b.String()
}
