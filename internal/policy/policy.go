// Package policy implements security policies and reference monitors over
// disclosure labels (Sections 3.4 and 6.2 of the paper).
//
// A security policy is represented as a collection of partitions
// {W1, ..., Wk}, each a set of single-atom security views. The reference
// monitor maintains the invariant that the set of all queries answered so
// far is below some partition in the disclosure order. With a single
// partition the policy is stateless; multiple partitions express stateful
// Chinese-Wall policies (Example 6.2). Consistency with each partition is
// tracked with one bit per partition (Example 6.3), so policy decisions
// never revisit the query history.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/label"
)

// Partition is one consistency class Wi of a security policy: a set of
// security views the principal may learn, represented by its disclosure
// label.
type Partition struct {
	Name  string
	Views []string // security-view names, for rendering
	Label label.Label
}

// Policy is an immutable security policy: one or more partitions.
type Policy struct {
	parts []Partition
}

// New builds a policy from named partitions, each listing security-view
// names from the catalog. At least one partition is required; a policy with
// exactly one partition is stateless (Section 6.2).
func New(c *label.Catalog, partitions map[string][]string) (*Policy, error) {
	if len(partitions) == 0 {
		return nil, fmt.Errorf("policy: at least one partition is required")
	}
	p := &Policy{}
	// Deterministic partition order: sorted by name.
	names := make([]string, 0, len(partitions))
	for n := range partitions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		viewNames := partitions[n]
		views := make([]*cq.Query, 0, len(viewNames))
		for _, vn := range viewNames {
			v := c.ViewByName(vn)
			if v == nil {
				return nil, fmt.Errorf("policy: partition %q references unknown security view %q", n, vn)
			}
			views = append(views, v)
		}
		lbl, err := label.LabelViews(c, views)
		if err != nil {
			return nil, fmt.Errorf("policy: partition %q: %w", n, err)
		}
		p.parts = append(p.parts, Partition{
			Name:  n,
			Views: append([]string(nil), viewNames...),
			Label: lbl,
		})
	}
	return p, nil
}

// Partitions returns the policy's partitions in order.
func (p *Policy) Partitions() []Partition { return append([]Partition(nil), p.parts...) }

// Len returns the number of partitions.
func (p *Policy) Len() int { return len(p.parts) }

// Stateless reports whether the policy has a single partition, in which
// case decisions are independent of query history (Section 6.2).
func (p *Policy) Stateless() bool { return len(p.parts) == 1 }

// String renders the policy as "{W1: [v1 v2], W2: [v3]}".
func (p *Policy) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, part := range p.parts {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %v", part.Name, part.Views)
	}
	b.WriteByte('}')
	return b.String()
}
