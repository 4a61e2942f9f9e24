// Package mds implements a Grid Information Service in the mold of the
// Globus MDS: a hierarchical directory of entries with attributes,
// searchable with LDAP-style filters, served over the transport layer. The
// RMF resource allocator publishes resource records here (host, cluster,
// processor count, load) and queries them when selecting resources for a
// job request.
package mds

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNotFound is returned when a DN does not exist.
var ErrNotFound = errors.New("mds: entry not found")

// ErrFilter reports a malformed filter expression.
var ErrFilter = errors.New("mds: bad filter")

// Entry is one directory record.
type Entry struct {
	// DN is the distinguished name, most-specific first:
	// "hn=rwcp-sun, ou=rwcp, o=grid".
	DN string
	// Attrs maps attribute names (lower-cased) to values.
	Attrs map[string][]string
}

// Clone deep-copies the entry.
func (e *Entry) Clone() *Entry {
	c := &Entry{DN: e.DN, Attrs: make(map[string][]string, len(e.Attrs))}
	for k, vs := range e.Attrs {
		c.Attrs[k] = append([]string(nil), vs...)
	}
	return c
}

// First returns the first value of an attribute, or "".
func (e *Entry) First(attr string) string {
	vs := e.Attrs[strings.ToLower(attr)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// Int returns the first value of an attribute as an integer, or def.
func (e *Entry) Int(attr string, def int) int {
	v := e.First(attr)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// normalizeDN canonicalizes component spacing and case of the keys.
func normalizeDN(dn string) (string, error) {
	parts := strings.Split(dn, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return "", fmt.Errorf("mds: empty DN component in %q", dn)
		}
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 || strings.TrimSpace(kv[0]) == "" {
			return "", fmt.Errorf("mds: DN component %q is not key=value", p)
		}
		out = append(out, strings.ToLower(strings.TrimSpace(kv[0]))+"="+strings.TrimSpace(kv[1]))
	}
	return strings.Join(out, ","), nil
}

// Directory is an in-memory hierarchical store. It is safe for concurrent
// use from real-TCP goroutines; in the simulator the kernel serializes
// access anyway.
type Directory struct {
	mu      sync.Mutex
	entries map[string]*Entry
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[string]*Entry)}
}

// Add inserts or replaces an entry. Attribute keys are lower-cased.
func (d *Directory) Add(dn string, attrs map[string][]string) error {
	norm, err := normalizeDN(dn)
	if err != nil {
		return err
	}
	e := &Entry{DN: norm, Attrs: make(map[string][]string, len(attrs))}
	for k, vs := range attrs {
		e.Attrs[strings.ToLower(k)] = append([]string(nil), vs...)
	}
	d.mu.Lock()
	d.entries[norm] = e
	d.mu.Unlock()
	return nil
}

// Delete removes an entry.
func (d *Directory) Delete(dn string) error {
	norm, err := normalizeDN(dn)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[norm]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, dn)
	}
	delete(d.entries, norm)
	return nil
}

// Get returns a copy of the entry at dn.
func (d *Directory) Get(dn string) (*Entry, error) {
	norm, err := normalizeDN(dn)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[norm]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dn)
	}
	return e.Clone(), nil
}

// Search returns copies of entries under base (inclusive) matching the
// filter, sorted by DN for determinism. An empty base searches the whole
// tree; a nil filter matches everything.
func (d *Directory) Search(base string, f Filter) ([]*Entry, error) {
	var suffix string
	if base != "" {
		norm, err := normalizeDN(base)
		if err != nil {
			return nil, err
		}
		suffix = norm
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*Entry
	for dn, e := range d.entries {
		if suffix != "" && dn != suffix && !strings.HasSuffix(dn, ","+suffix) {
			continue
		}
		if f != nil && !f.Matches(e) {
			continue
		}
		out = append(out, e.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN < out[j].DN })
	return out, nil
}

// Len reports the entry count.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Filter matches entries.
type Filter interface {
	Matches(e *Entry) bool
	String() string
}

type eqFilter struct{ attr, val string }

func (f eqFilter) Matches(e *Entry) bool {
	for _, v := range e.Attrs[f.attr] {
		if f.val == "*" || strings.EqualFold(v, f.val) {
			return true
		}
	}
	return false
}
func (f eqFilter) String() string { return "(" + f.attr + "=" + f.val + ")" }

type cmpFilter struct {
	attr string
	op   string // ">=" or "<="
	val  int
}

func (f cmpFilter) Matches(e *Entry) bool {
	for _, v := range e.Attrs[f.attr] {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		if f.op == ">=" && n >= f.val {
			return true
		}
		if f.op == "<=" && n <= f.val {
			return true
		}
	}
	return false
}
func (f cmpFilter) String() string { return "(" + f.attr + f.op + strconv.Itoa(f.val) + ")" }

type andFilter []Filter

func (f andFilter) Matches(e *Entry) bool {
	for _, sub := range f {
		if !sub.Matches(e) {
			return false
		}
	}
	return true
}
func (f andFilter) String() string { return combine("&", f) }

type orFilter []Filter

func (f orFilter) Matches(e *Entry) bool {
	for _, sub := range f {
		if sub.Matches(e) {
			return true
		}
	}
	return false
}
func (f orFilter) String() string { return combine("|", f) }

type notFilter struct{ sub Filter }

func (f notFilter) Matches(e *Entry) bool { return !f.sub.Matches(e) }
func (f notFilter) String() string        { return "(!" + f.sub.String() + ")" }

func combine(op string, fs []Filter) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(op)
	for _, f := range fs {
		b.WriteString(f.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Eq builds an equality filter; val "*" tests presence.
func Eq(attr, val string) Filter { return eqFilter{strings.ToLower(attr), val} }

// ParseFilter parses an LDAP-style filter:
// (&(objectclass=resource)(freecpus>=4)(!(site=etl))).
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{in: s}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("%w: trailing input in %q", ErrFilter, s)
	}
	return f, nil
}

type filterParser struct {
	in  string
	pos int
}

func (p *filterParser) parse() (Filter, error) {
	if p.pos >= len(p.in) || p.in[p.pos] != '(' {
		return nil, fmt.Errorf("%w: expected '(' at %d", ErrFilter, p.pos)
	}
	p.pos++
	if p.pos >= len(p.in) {
		return nil, fmt.Errorf("%w: truncated", ErrFilter)
	}
	switch p.in[p.pos] {
	case '&', '|':
		op := p.in[p.pos]
		p.pos++
		var subs []Filter
		for p.pos < len(p.in) && p.in[p.pos] == '(' {
			sub, err := p.parse()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if len(subs) == 0 {
			return nil, fmt.Errorf("%w: empty composite", ErrFilter)
		}
		if op == '&' {
			return andFilter(subs), nil
		}
		return orFilter(subs), nil
	case '!':
		p.pos++
		sub, err := p.parse()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return notFilter{sub}, nil
	default:
		end := strings.IndexByte(p.in[p.pos:], ')')
		if end < 0 {
			return nil, fmt.Errorf("%w: unterminated relation", ErrFilter)
		}
		body := p.in[p.pos : p.pos+end]
		p.pos += end + 1
		for _, op := range []string{">=", "<=", "="} {
			if i := strings.Index(body, op); i > 0 {
				attr := strings.ToLower(strings.TrimSpace(body[:i]))
				val := strings.TrimSpace(body[i+len(op):])
				if op == "=" {
					return eqFilter{attr, val}, nil
				}
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("%w: %s wants integer, got %q", ErrFilter, op, val)
				}
				return cmpFilter{attr, op, n}, nil
			}
		}
		return nil, fmt.Errorf("%w: relation %q missing operator", ErrFilter, body)
	}
}

func (p *filterParser) expect(c byte) error {
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return fmt.Errorf("%w: expected %q at %d", ErrFilter, string(c), p.pos)
	}
	p.pos++
	return nil
}
