package cq

import (
	"fmt"
	"strings"
	"unicode"
)

// MaxBodyAtoms bounds the atoms of a parsed query's body, so that a text
// from an untrusted client is refused before canonicalization. CanonicalKey
// runs ahead of the fold's step budget and grows about cubically in the
// atoms of a chain: on a 2-CPU host 1,000 atoms take ≈ 0.1 s and 2,000
// ≈ 1 s, and a 1 MiB request body holds a chain of over 16,000. Generated
// app templates stay at 15 atoms or fewer.
const MaxBodyAtoms = 64

// ParseQuery parses a conjunctive query in datalog syntax:
//
//	Q(x, y) :- Meetings(x, y), Contacts(y, w, 'Intern')
//
// Variables are bare identifiers; constants are single-quoted strings or
// numeric literals. The head may be empty ("Q() :- ...") for boolean
// queries. Both ":-" and the unicode ":−" arrow are accepted. A body of
// more than MaxBodyAtoms atoms is refused.
func ParseQuery(src string) (*Query, error) {
	p := parser{src: src}
	q, err := p.parseQuery()
	if err == nil {
		err = q.Validate()
	}
	if err == nil {
		err = p.finish()
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is like ParseQuery but panics on error; intended for
// statically-known queries in tests and examples.
func MustParse(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseProgram parses a newline-separated list of queries. Blank lines and
// lines starting with "#" or "%" are ignored.
func ParseProgram(src string) ([]*Query, error) {
	var out []*Query
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		q, err := ParseQuery(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, q)
	}
	return out, nil
}

type parser struct {
	src string
	pos int
	// terms backs every term list of the query, the head's and each
	// atom's, each a full slice of it (cap == len): parseQuery sizes it once
	// for the whole text.
	terms []Term
}

func (p *parser) eof() bool     { return p.pos >= len(p.src) }
func (p *parser) rest() string  { return p.src[p.pos:] }
func (p *parser) peek() byte    { return p.src[p.pos] }
func (p *parser) advance() byte { b := p.src[p.pos]; p.pos++; return b }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("cq: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t' || p.peek() == '\r' || p.peek() == '\n') {
		p.pos++
	}
}

// parseQuery reads a query's name, head and body. The callers check its
// safety and then that nothing follows it (finish), in that order.
func (p *parser) parseQuery() (*Query, error) {
	p.skipSpace()
	if rest := p.rest(); strings.Count(rest, ")") <= MaxBodyAtoms+1 {
		// One array for every term list: a term is followed by a comma or
		// ends a list, so this is exact but for the commas between atoms
		// and any inside quoted constants. Past the atom bound the text is
		// refused at the arrow, before any array is sized by it.
		p.terms = make([]Term, 0, strings.Count(rest, ",")+strings.Count(rest, "("))
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, fmt.Errorf("%w (expected query name)", err)
	}
	head, err := p.parseTermList()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.consumeArrow() {
		return nil, p.errorf("expected \":-\" after query head")
	}
	atoms := strings.Count(p.rest(), ")")
	if atoms > MaxBodyAtoms {
		if atoms = p.countAtoms(); atoms > MaxBodyAtoms {
			return nil, p.errorf("query body has %d atoms, more than %d", atoms, MaxBodyAtoms)
		}
	}
	body := make([]Atom, 0, atoms)
	for {
		p.skipSpace()
		rel, err := p.parseIdent()
		if err != nil {
			return nil, fmt.Errorf("%w (expected relation name)", err)
		}
		args, err := p.parseTermList()
		if err != nil {
			return nil, err
		}
		body = append(body, Atom{Rel: rel, Args: args})
		p.skipSpace()
		if p.eof() || (p.peek() != ',' && !p.hasConjunction()) {
			break
		}
		if p.peek() == ',' {
			p.pos++
		} else {
			p.consumeConjunction()
		}
	}
	// The slices are the parser's own: no defensive copy (NewQuery's).
	return &Query{Name: name, Head: head, Body: body}, nil
}

// finish reports input left after the query.
func (p *parser) finish() error {
	p.skipSpace()
	if !p.eof() {
		return p.errorf("unexpected trailing input %q", p.rest())
	}
	return nil
}

// consumeArrow accepts ":-" or the typographic ":−" (U+2212) used in the
// paper's figures.
func (p *parser) consumeArrow() bool {
	if strings.HasPrefix(p.rest(), ":-") {
		p.pos += 2
		return true
	}
	if strings.HasPrefix(p.rest(), ":−") {
		p.pos += 1 + len("−")
		return true
	}
	return false
}

// hasConjunction reports whether the input continues with an explicit
// conjunction: "∧" or "&&" or the keyword "AND".
func (p *parser) hasConjunction() bool {
	r := p.rest()
	return strings.HasPrefix(r, "∧") || strings.HasPrefix(r, "&&") ||
		strings.HasPrefix(r, "AND ") || strings.HasPrefix(r, "and ")
}

func (p *parser) consumeConjunction() {
	r := p.rest()
	switch {
	case strings.HasPrefix(r, "∧"):
		p.pos += len("∧")
	case strings.HasPrefix(r, "&&"):
		p.pos += 2
	case strings.HasPrefix(r, "AND "), strings.HasPrefix(r, "and "):
		p.pos += 3
	}
}

func (p *parser) parseTermList() ([]Term, error) {
	p.skipSpace()
	if p.eof() || p.peek() != '(' {
		return nil, p.errorf("expected '('")
	}
	p.pos++
	p.skipSpace()
	if !p.eof() && p.peek() == ')' {
		p.pos++
		return nil, nil
	}
	start := len(p.terms)
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		p.terms = append(p.terms, t)
		p.skipSpace()
		if p.eof() {
			return nil, p.errorf("unterminated term list")
		}
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			end := len(p.terms)
			return p.terms[start:end:end], nil
		default:
			return nil, p.errorf("expected ',' or ')' in term list, found %q", string(p.peek()))
		}
	}
}

// countAtoms counts the closing parentheses outside quoted constants in
// the input ahead, without consuming anything: after the arrow of a
// well-formed query, its body's atoms. strings.Count of the parentheses is
// the fast upper bound parseQuery tries first.
func (p *parser) countAtoms() int {
	n := 0
	for i := p.pos; i < len(p.src); i++ {
		switch c := p.src[i]; c {
		case ')':
			n++
		case '\'', '"':
			for i++; i < len(p.src) && p.src[i] != c; i++ {
				if p.src[i] == '\\' {
					i++
				}
			}
		}
	}
	return n
}

func (p *parser) parseTerm() (Term, error) {
	p.skipSpace()
	if p.eof() {
		return Term{}, p.errorf("expected term")
	}
	switch c := p.peek(); {
	case c == '\'' || c == '"':
		return p.parseQuoted(c)
	case c >= '0' && c <= '9' || c == '-':
		return p.parseNumber()
	default:
		id, err := p.parseIdent()
		if err != nil {
			return Term{}, err
		}
		return V(id), nil
	}
}

// parseQuoted reads a quoted constant. One without a backslash escape — all
// but a handful — is a substring of the source, like identifiers and
// numbers; only an escaped one is rebuilt.
func (p *parser) parseQuoted(quote byte) (Term, error) {
	p.pos++ // opening quote
	start := p.pos
	var b strings.Builder
	escaped := false
	for !p.eof() {
		c := p.advance()
		if c == quote {
			if !escaped {
				return C(p.src[start : p.pos-1]), nil
			}
			return C(b.String()), nil
		}
		if c == '\\' && !p.eof() {
			if !escaped {
				escaped = true
				b.WriteString(p.src[start : p.pos-1])
			}
			c = p.advance()
		}
		if escaped {
			b.WriteByte(c)
		}
	}
	return Term{}, p.errorf("unterminated string constant")
}

func (p *parser) parseNumber() (Term, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for !p.eof() && (p.peek() >= '0' && p.peek() <= '9' || p.peek() == '.') {
		p.pos++
	}
	if p.pos == start || (p.pos == start+1 && p.src[start] == '-') {
		return Term{}, p.errorf("malformed numeric constant")
	}
	return C(p.src[start:p.pos]), nil
}

func (p *parser) parseIdent() (string, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		r := rune(p.peek())
		if unicode.IsLetter(r) || r == '_' || (p.pos > start && (unicode.IsDigit(r))) {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		if p.eof() {
			return "", p.errorf("expected identifier, found end of input")
		}
		return "", p.errorf("expected identifier, found %q", string(p.peek()))
	}
	return p.src[start:p.pos], nil
}
