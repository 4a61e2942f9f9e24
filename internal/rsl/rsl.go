// Package rsl implements the Globus Resource Specification Language used to
// describe job requests submitted to a gatekeeper, covering the subset the
// paper's system needs: conjunctions of attribute relations
//
//	&(executable=/usr/local/bin/knapsack)(count=8)(arguments=50 "steal=4")
//	 (environment=(NEXUS_PROXY_OUTER_SERVER rwcp-outer:7000))
//
// and DUROC-style multirequests, which name one subjob per resource manager
// (the gatekeeper refuses them; it runs one job per request):
//
//	+(&(resourceManagerContact=rwcp)(count=4))
//	 (&(resourceManagerContact=etl)(count=8))
package rsl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrSyntax reports a malformed specification.
var ErrSyntax = errors.New("rsl: syntax error")

// Value is one relation value: a string or a parenthesized list.
type Value struct {
	// Str holds the scalar value when List is nil.
	Str string
	// List holds sublist values, e.g. environment pairs.
	List []Value
}

// IsList reports whether the value is a sublist.
func (v Value) IsList() bool { return v.List != nil }

// Relation is one (attribute = values...) clause.
type Relation struct {
	Attr   string
	Values []Value
}

// Spec is a parsed request: either a conjunction of relations or a
// multirequest of sub-specifications.
type Spec struct {
	// Multi is non-nil for a '+' multirequest.
	Multi []*Spec
	// Relations holds the '&' conjunction's clauses.
	Relations []Relation
}

// IsMulti reports whether the spec is a multirequest.
func (s *Spec) IsMulti() bool { return s.Multi != nil }

// Get returns the values of the first relation with the attribute
// (case-insensitive), as Globus RSL attribute matching does.
func (s *Spec) Get(attr string) ([]Value, bool) {
	for _, r := range s.Relations {
		if strings.EqualFold(r.Attr, attr) {
			return r.Values, true
		}
	}
	return nil, false
}

// GetString returns the attribute's single scalar value, or def.
func (s *Spec) GetString(attr, def string) string {
	vs, ok := s.Get(attr)
	if !ok || len(vs) == 0 || vs[0].IsList() {
		return def
	}
	return vs[0].Str
}

// GetInt returns the attribute's single integer value, or def.
func (s *Spec) GetInt(attr string, def int) int {
	str := s.GetString(attr, "")
	if str == "" {
		return def
	}
	n, err := strconv.Atoi(str)
	if err != nil {
		return def
	}
	return n
}

// GetStrings returns the attribute's scalar values.
func (s *Spec) GetStrings(attr string) []string {
	vs, _ := s.Get(attr)
	var out []string
	for _, v := range vs {
		if !v.IsList() {
			out = append(out, v.Str)
		}
	}
	return out
}

// Pairs interprets the attribute's values as (name value) sublists, the RSL
// environment convention.
func (s *Spec) Pairs(attr string) ([][2]string, error) {
	vs, ok := s.Get(attr)
	if !ok {
		return nil, nil
	}
	var out [][2]string
	for _, v := range vs {
		if !v.IsList() || len(v.List) != 2 || v.List[0].IsList() || v.List[1].IsList() {
			return nil, fmt.Errorf("%w: %s wants (name value) pairs", ErrSyntax, attr)
		}
		out = append(out, [2]string{v.List[0].Str, v.List[1].Str})
	}
	return out, nil
}

// Set adds or replaces a relation.
func (s *Spec) Set(attr string, values ...Value) {
	for i, r := range s.Relations {
		if strings.EqualFold(r.Attr, attr) {
			s.Relations[i].Values = values
			return
		}
	}
	s.Relations = append(s.Relations, Relation{Attr: attr, Values: values})
}

// String renders the spec in canonical RSL syntax.
func (s *Spec) String() string {
	var b strings.Builder
	s.render(&b)
	return b.String()
}

func (s *Spec) render(b *strings.Builder) {
	if s.IsMulti() {
		b.WriteByte('+')
		for _, sub := range s.Multi {
			b.WriteByte('(')
			sub.render(b)
			b.WriteByte(')')
		}
		return
	}
	b.WriteByte('&')
	for _, r := range s.Relations {
		b.WriteByte('(')
		b.WriteString(r.Attr)
		b.WriteByte('=')
		for i, v := range r.Values {
			if i > 0 {
				b.WriteByte(' ')
			}
			renderValue(b, v)
		}
		b.WriteByte(')')
	}
}

func renderValue(b *strings.Builder, v Value) {
	if v.IsList() {
		b.WriteByte('(')
		for i, e := range v.List {
			if i > 0 {
				b.WriteByte(' ')
			}
			renderValue(b, e)
		}
		b.WriteByte(')')
		return
	}
	if needsQuoting(v.Str) {
		b.WriteByte('"')
		b.WriteString(strings.ReplaceAll(v.Str, `"`, `""`))
		b.WriteByte('"')
		return
	}
	b.WriteString(v.Str)
}

// needsQuoting reports whether a scalar must be rendered quoted to survive
// reparsing: empty strings, RSL structural characters, and anything below
// 0x21 (whitespace and control bytes, which the word scanner either stops
// at or which read ambiguously unquoted).
func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= 0x20 || c == '(' || c == ')' || c == '=' || c == '"' || c == '&' || c == '+' {
			return true
		}
	}
	return false
}

// Parse parses an RSL string.
func Parse(input string) (*Spec, error) {
	p := &parser{in: input}
	spec, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("%w: trailing input at offset %d", ErrSyntax, p.pos)
	}
	return spec, nil
}

type parser struct {
	in  string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n' || p.in[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func (p *parser) parseSpec() (*Spec, error) {
	p.skipSpace()
	switch p.peek() {
	case '+':
		p.pos++
		spec := &Spec{Multi: []*Spec{}}
		for {
			p.skipSpace()
			if p.peek() != '(' {
				break
			}
			p.pos++
			sub, err := p.parseSpec()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.peek() != ')' {
				return nil, fmt.Errorf("%w: unterminated multirequest element", ErrSyntax)
			}
			p.pos++
			spec.Multi = append(spec.Multi, sub)
		}
		if len(spec.Multi) == 0 {
			return nil, fmt.Errorf("%w: empty multirequest", ErrSyntax)
		}
		return spec, nil
	case '&':
		p.pos++
		fallthrough
	default:
		spec := &Spec{}
		for {
			p.skipSpace()
			if p.peek() != '(' {
				break
			}
			p.pos++
			rel, err := p.parseRelation()
			if err != nil {
				return nil, err
			}
			spec.Relations = append(spec.Relations, rel)
		}
		if len(spec.Relations) == 0 {
			return nil, fmt.Errorf("%w: empty specification", ErrSyntax)
		}
		return spec, nil
	}
}

func (p *parser) parseRelation() (Relation, error) {
	p.skipSpace()
	attr, err := p.parseWord()
	if err != nil {
		return Relation{}, err
	}
	p.skipSpace()
	if p.peek() != '=' {
		return Relation{}, fmt.Errorf("%w: expected '=' after attribute %q", ErrSyntax, attr)
	}
	p.pos++
	var values []Value
	for {
		p.skipSpace()
		c := p.peek()
		if c == ')' {
			p.pos++
			return Relation{Attr: attr, Values: values}, nil
		}
		// Check the position, not the byte: a literal NUL is word data, not
		// end of input.
		if p.pos >= len(p.in) {
			return Relation{}, fmt.Errorf("%w: unterminated relation %q", ErrSyntax, attr)
		}
		v, err := p.parseValue()
		if err != nil {
			return Relation{}, err
		}
		values = append(values, v)
	}
}

func (p *parser) parseValue() (Value, error) {
	p.skipSpace()
	switch p.peek() {
	case '(':
		p.pos++
		list := []Value{}
		for {
			p.skipSpace()
			if p.peek() == ')' {
				p.pos++
				return Value{List: list}, nil
			}
			if p.pos >= len(p.in) {
				return Value{}, fmt.Errorf("%w: unterminated value list", ErrSyntax)
			}
			v, err := p.parseValue()
			if err != nil {
				return Value{}, err
			}
			list = append(list, v)
		}
	case '"':
		return p.parseQuoted()
	default:
		w, err := p.parseWord()
		if err != nil {
			return Value{}, err
		}
		return Value{Str: w}, nil
	}
}

func (p *parser) parseQuoted() (Value, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '"' {
			// RSL escapes a quote by doubling it.
			if p.pos+1 < len(p.in) && p.in[p.pos+1] == '"' {
				b.WriteByte('"')
				p.pos += 2
				continue
			}
			p.pos++
			return Value{Str: b.String()}, nil
		}
		b.WriteByte(c)
		p.pos++
	}
	return Value{}, fmt.Errorf("%w: unterminated quoted string", ErrSyntax)
}

func (p *parser) parseWord() (string, error) {
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(' || c == ')' || c == '=' || c == '"' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("%w: expected word at offset %d", ErrSyntax, start)
	}
	return p.in[start:p.pos], nil
}
