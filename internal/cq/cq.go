// Package cq implements the conjunctive-query core used by the disclosure
// labeler: terms, atoms and queries, a datalog-style parser and printer,
// substitutions, homomorphisms, containment and equivalence testing
// (Chandra–Merlin), and query minimization ("folding").
//
// Everything that reasons about a query — canonicalization, folding, the
// homomorphism search — runs on its interned form (Form, form.go): variable
// names are resolved to dense ids once, and the passes work on integer
// arrays in pooled scratch. There is one backtracking homomorphism search
// (hom.go); the fold (minimize.go) is the only caller that bounds it, with a
// fixed step budget, and fails closed when the budget runs out.
//
// A conjunctive query has the form
//
//	H :- B
//
// where H is a relational head atom and B a conjunction of relational body
// atoms. Variables that appear in the head are distinguished; variables that
// appear only in the body are existential. Two queries are equivalent if they
// return the same answers on every database.
package cq

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// TermKind discriminates constants from variables.
type TermKind int

const (
	// Const is a constant term (an opaque data value).
	Const TermKind = iota
	// Var is a variable term.
	Var
)

// Term is a constant or a variable. Whether a variable is distinguished or
// existential is a property of the enclosing query (see Query.VarRoles), not
// of the term itself.
type Term struct {
	Kind  TermKind
	Value string // constant value, or variable name
}

// C constructs a constant term.
func C(v string) Term { return Term{Kind: Const, Value: v} }

// V constructs a variable term.
func V(name string) Term { return Term{Kind: Var, Value: name} }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.Kind == Const }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// String renders a variable as its name and a constant in single quotes,
// a quote or backslash inside it backslash-escaped — the escaping the parser
// reads, so a rendered query parses back to the same query.
func (t Term) String() string {
	if t.Kind == Const {
		var b strings.Builder
		b.Grow(len(t.Value) + 2)
		writeEscapedConst(&b, t.Value)
		return b.String()
	}
	return t.Value
}

// Atom is a relational atom R(t1, ..., tk).
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom constructs an atom.
func NewAtom(rel string, args ...Term) Atom {
	return Atom{Rel: rel, Args: append([]Term(nil), args...)}
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	return Atom{Rel: a.Rel, Args: append([]Term(nil), a.Args...)}
}

// Equal reports syntactic equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// String renders the atom as "R(t1, t2, ...)".
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// VarRole classifies a variable within a query.
type VarRole int

const (
	// Existential variables appear only in the body.
	Existential VarRole = iota
	// Distinguished variables appear in the head.
	Distinguished
)

// String returns "existential" or "distinguished".
func (r VarRole) String() string {
	if r == Distinguished {
		return "distinguished"
	}
	return "existential"
}

// Query is a conjunctive query. The head holds the query name and the list
// of head terms; every head variable must also appear in the body (safety).
// Head terms may be variables or constants (constants in the head are
// permitted for generality but the parser produces variable-only heads).
type Query struct {
	Name string
	Head []Term
	Body []Atom
}

// NewQuery constructs and validates a query. It returns an error if the
// query is unsafe (a head variable does not occur in the body) or has an
// empty body with variables in the head.
func NewQuery(name string, head []Term, body []Atom) (*Query, error) {
	q := &Query{
		Name: name,
		Head: append([]Term(nil), head...),
		Body: make([]Atom, 0, len(body)),
	}
	for _, a := range body {
		q.Body = append(q.Body, a.Clone())
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustQuery is like NewQuery but panics on error; it is intended for
// statically-known queries in tests and examples.
func MustQuery(name string, head []Term, body []Atom) *Query {
	q, err := NewQuery(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks query safety: every head variable must appear in the body,
// and the body must be nonempty.
func (q *Query) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: query %s has an empty body", q.Name)
	}
	// A small query's head variables are looked up by scanning the body,
	// which allocates nothing; but the scan is head × body — quadratic on a
	// megabyte of query text — so past validateScanLimit comparisons the
	// body's variables are collected once.
	var bodyVars map[string]struct{}
	terms := 0
	for _, a := range q.Body {
		terms += len(a.Args)
	}
	if len(q.Head)*terms > validateScanLimit {
		bodyVars = make(map[string]struct{}, terms)
		for _, a := range q.Body {
			for _, bt := range a.Args {
				if bt.Kind == Var {
					bodyVars[bt.Value] = struct{}{}
				}
			}
		}
	}
	for _, t := range q.Head {
		if !t.IsVar() {
			continue
		}
		found := false
		if bodyVars != nil {
			_, found = bodyVars[t.Value]
		} else {
		search:
			for _, a := range q.Body {
				for _, bt := range a.Args {
					if bt.Kind == Var && bt.Value == t.Value {
						found = true
						break search
					}
				}
			}
		}
		if !found {
			return fmt.Errorf("cq: query %s is unsafe: head variable %s does not appear in the body", q.Name, t.Value)
		}
	}
	return nil
}

// validateScanLimit is the head × body size up to which Validate scans the
// body per head variable instead of building a set of the body's variables.
const validateScanLimit = 4096

// ValidateAgainst additionally checks the query against a schema: every body
// atom must reference a known relation with matching arity.
func (q *Query) ValidateAgainst(s *schema.Schema) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for _, a := range q.Body {
		rel := s.Relation(a.Rel)
		if rel == nil {
			return fmt.Errorf("cq: query %s references unknown relation %q", q.Name, a.Rel)
		}
		if rel.Arity() != len(a.Args) {
			return fmt.Errorf("cq: query %s: relation %q has arity %d but atom has %d arguments",
				q.Name, a.Rel, rel.Arity(), len(a.Args))
		}
	}
	return nil
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{
		Name: q.Name,
		Head: append([]Term(nil), q.Head...),
		Body: make([]Atom, 0, len(q.Body)),
	}
	for _, a := range q.Body {
		c.Body = append(c.Body, a.Clone())
	}
	return c
}

// Vars returns all variables of the query in first-occurrence order
// (head first, then body).
func (q *Query) Vars() []string {
	seen := make(map[string]struct{})
	var out []string
	add := func(t Term) {
		if t.IsVar() {
			if _, ok := seen[t.Value]; !ok {
				seen[t.Value] = struct{}{}
				out = append(out, t.Value)
			}
		}
	}
	for _, t := range q.Head {
		add(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			add(t)
		}
	}
	return out
}

// DistinguishedVars returns the set of head variables.
func (q *Query) DistinguishedVars() map[string]struct{} {
	out := make(map[string]struct{}, len(q.Head))
	for _, t := range q.Head {
		if t.IsVar() {
			out[t.Value] = struct{}{}
		}
	}
	return out
}

// VarRoles returns the role (distinguished or existential) of every variable
// in the query.
func (q *Query) VarRoles() map[string]VarRole {
	dist := q.DistinguishedVars()
	roles := make(map[string]VarRole)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				if _, ok := dist[t.Value]; ok {
					roles[t.Value] = Distinguished
				} else if _, seen := roles[t.Value]; !seen {
					roles[t.Value] = Existential
				}
			}
		}
	}
	for v := range dist {
		roles[v] = Distinguished
	}
	return roles
}

// Role returns the role of the named variable within q.
func (q *Query) Role(v string) VarRole {
	if _, ok := q.DistinguishedVars()[v]; ok {
		return Distinguished
	}
	return Existential
}

// IsBoolean reports whether the query has an empty head (a sentence).
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// IsSingleAtom reports whether the query body consists of exactly one atom.
func (q *Query) IsSingleAtom() bool { return len(q.Body) == 1 }

// Equal reports syntactic equality (same name ignored; same head, same body
// in the same order).
func (q *Query) Equal(other *Query) bool {
	if len(q.Head) != len(other.Head) || len(q.Body) != len(other.Body) {
		return false
	}
	for i := range q.Head {
		if q.Head[i] != other.Head[i] {
			return false
		}
	}
	for i := range q.Body {
		if !q.Body[i].Equal(other.Body[i]) {
			return false
		}
	}
	return true
}

// String renders the query in datalog form, e.g. "Q(x) :- M(x, 'Cathy')".
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(") :- ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// TaggedString renders the query in the paper's tagged representation, where
// each variable carries a subscript d (distinguished) or e (existential),
// e.g. "[M(x_d, y_e), C(y_e, w_e, 'Intern')]".
func (q *Query) TaggedString() string {
	roles := q.VarRoles()
	var b strings.Builder
	b.WriteByte('[')
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for j, t := range a.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			if t.IsConst() {
				b.WriteString(t.String())
			} else if roles[t.Value] == Distinguished {
				b.WriteString(t.Value + "_d")
			} else {
				b.WriteString(t.Value + "_e")
			}
		}
		b.WriteByte(')')
	}
	b.WriteByte(']')
	return b.String()
}

// RenameApart returns a copy of q whose variables are renamed so that they
// are disjoint from the variables of every query in others. Renamed
// variables keep their role structure.
func (q *Query) RenameApart(others ...*Query) *Query {
	taken := make(map[string]struct{})
	for _, o := range others {
		for _, v := range o.Vars() {
			taken[v] = struct{}{}
		}
	}
	ren := make(map[string]string)
	fresh := func(v string) string {
		if nv, ok := ren[v]; ok {
			return nv
		}
		cand := v
		for i := 1; ; i++ {
			if _, clash := taken[cand]; !clash {
				break
			}
			cand = fmt.Sprintf("%s_%d", v, i)
		}
		taken[cand] = struct{}{}
		ren[v] = cand
		return cand
	}
	c := q.Clone()
	mapTerm := func(t Term) Term {
		if t.IsVar() {
			return V(fresh(t.Value))
		}
		return t
	}
	for i, t := range c.Head {
		c.Head[i] = mapTerm(t)
	}
	for i := range c.Body {
		for j, t := range c.Body[i].Args {
			c.Body[i].Args[j] = mapTerm(t)
		}
	}
	return c
}

// CanonicalString returns a canonical rendering of the query that is
// invariant under variable renaming and body-atom reordering. It is a
// syntactic canonical form (two equivalent but non-isomorphic queries may
// still differ); use Equivalent for semantic comparison. It is exactly
// CanonicalKey (see canon.go).
func (q *Query) CanonicalString() string {
	return CanonicalKey(q)
}
