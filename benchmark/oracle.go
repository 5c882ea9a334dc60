package main

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/label"
)

// model is the paper's reference monitor for one principal as a sequential
// specification (Section 6.2): the live-partition set only ever shrinks, a
// query is admitted iff some live partition dominates its label, and an
// admitted query retires the partitions that do not. The daemon's decision
// for every op must equal submit's, whatever the daemon's caches, log or
// replication did in between.
type model struct {
	all, live uint64
	// cum is the join of the admitted labels — the session's cumulative
	// disclosure as /v1/explain renders it; joined[i] skips re-joining a
	// pool template the session already admitted.
	cum    label.Label
	joined []bool
	// transitions counts the admits that retired a partition: the only
	// decisions that changed what the monitor must remember.
	transitions int
}

// newModel starts a session over n partitions and a pool of the given size.
func newModel(n, pool int) *model {
	m := &model{all: 1<<uint(n) - 1, joined: make([]bool, pool)}
	m.reset()
	return m
}

// reset is a policy (re-)installation: every partition is live again.
func (m *model) reset() {
	m.live = m.all
	m.cum = label.Label{}
	clear(m.joined)
}

// submit decides pool template i and reports the expected outcome.
func (m *model) submit(i int, t *template) bool {
	next := m.live & t.dom
	if next == 0 {
		return false
	}
	if next != m.live {
		m.transitions++
	}
	m.live = next
	if !m.joined[i] {
		m.joined[i] = true
		m.cum = m.cum.Join(t.lbl)
	}
	return true
}

// liveNames lists the model's live partitions in policy order.
func (m *model) liveNames(names []string) []string {
	var out []string
	for i, n := range names {
		if m.live&(1<<uint(i)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// label fills in what the monitor model needs to know about a template:
// its label, computed by the uncached bit-vector labeler over the wire text
// parsed back, and the set of policy partitions dominating it.
func (in *inputs) label(t *template) error {
	if t.labeled {
		return nil
	}
	q, err := cq.ParseQuery(t.src)
	if err != nil {
		return fmt.Errorf("oracle: parsing %q: %w", t.src, err)
	}
	lbl, err := in.labeler.Label(q)
	if err != nil {
		return fmt.Errorf("oracle: labeling %s: %w", q.Name, err)
	}
	t.q, t.lbl, t.dom, t.labeled = q, lbl, 0, true
	for i, pl := range in.partLabels {
		if lbl.BelowEq(pl) {
			t.dom |= 1 << uint(i)
		}
	}
	return nil
}

// reference fills in a template's answer over the oracle's database with
// the engine's retained reference evaluator.
func (in *inputs) reference(t *template) error {
	if t.haveRows {
		return nil
	}
	if err := in.label(t); err != nil {
		return err
	}
	rows, err := in.ref.EvalReference(t.q)
	if err != nil {
		return fmt.Errorf("oracle: evaluating %s: %w", t.q.Name, err)
	}
	t.rows, t.haveRows = rowKeys(rows), true
	return nil
}
