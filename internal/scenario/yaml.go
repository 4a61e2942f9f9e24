// Package scenario is the declarative experiment DSL: a YAML/JSON file
// declares a topology (the Figure 5 testbed plus extra grid sites, link
// overrides, firewall state), a workload (the paper's Table 2/Table 4
// measurements, chaos runs under a fault schedule, the monitoring plane, the
// gridftp congestion sweep, or a wide-grid solve), a fault
// schedule reusing simnet.FaultPlan's primitives, and a list of end-of-run
// assertions reusing the chaos invariant library.
//
// Scenarios compile to exactly the configurations the internal/bench runners
// take, so a scenario reproduces the bench run it declares bit for bit, and
// `simulator run` prints the report the kind renders (scenarios/paper/ holds
// the paper-scale files). Every scenario doubles as a deterministic
// regression test: Run executes each scenario twice and the two runs must
// agree on a canonical result fingerprint (and, where an observer is
// attached, the full FNV-64a trace hash).
//
// The file format is a strict subset of YAML — block maps, block sequences,
// inline [flow] lists and {flow} maps, quoted and plain scalars, comments —
// plus plain JSON (a document whose first byte is '{' parses with
// encoding/json). Parsing never panics on malformed input (FuzzScenario
// enforces the same contract ApplyPlan gives fault plans), unknown keys are
// errors, and durations are written as Go duration strings ("250ms", "1m30s").
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseDocument parses a scenario document — the YAML subset, or JSON when
// the first non-space byte is '{' — into generic values: map[string]any,
// []any, string, bool, int64, float64, nil.
func parseDocument(data []byte) (any, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return parseJSON(data)
	}
	return parseYAML(data)
}

func parseJSON(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("scenario: json: %v", err)
	}
	// Trailing non-space content after the document is an error, whether or
	// not it happens to be valid JSON itself.
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("scenario: json: trailing content after document")
	}
	return normalizeJSON(v), nil
}

// normalizeJSON converts json.Number leaves to int64 (when integral) or
// float64, matching the YAML parser's scalar types.
func normalizeJSON(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			t[k] = normalizeJSON(e)
		}
		return t
	case []any:
		for i, e := range t {
			t[i] = normalizeJSON(e)
		}
		return t
	case json.Number:
		if i, err := strconv.ParseInt(t.String(), 10, 64); err == nil {
			return i
		}
		f, _ := t.Float64()
		return f
	default:
		return v
	}
}

// yamlLine is one significant (non-blank, non-comment) line of the document.
type yamlLine struct {
	num    int // 1-based line number in the source
	indent int // leading spaces
	text   string
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

func parseYAML(data []byte) (any, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \t\r")
		stripped, err := stripComment(line)
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: %v", i+1, err)
		}
		if strings.TrimSpace(stripped) == "" {
			continue
		}
		indent := 0
		for indent < len(stripped) && stripped[indent] == ' ' {
			indent++
		}
		if strings.HasPrefix(stripped[indent:], "\t") || strings.Contains(stripped[:indent], "\t") {
			return nil, fmt.Errorf("scenario: line %d: tab in indentation (use spaces)", i+1)
		}
		lines = append(lines, yamlLine{num: i + 1, indent: indent, text: stripped[indent:]})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("scenario: empty document")
	}
	p := &yamlParser{lines: lines}
	v, err := p.parseValue(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("scenario: line %d: unexpected content %q (indentation does not match any open block)",
			p.lines[p.pos].num, p.lines[p.pos].text)
	}
	return v, nil
}

// stripComment removes a trailing "#..." comment, respecting quotes.
func stripComment(line string) (string, error) {
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++ // skip escaped char inside double quotes
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#':
			// A comment starts at '#' preceded by start-of-line or whitespace.
			if i == 0 || line[i-1] == ' ' || line[i-1] == '\t' {
				return line[:i], nil
			}
		}
	}
	if quote != 0 {
		return "", fmt.Errorf("unterminated %c-quoted string", quote)
	}
	return line, nil
}

func (p *yamlParser) parseValue(indent int) (any, error) {
	ln := p.lines[p.pos]
	if ln.text == "-" || strings.HasPrefix(ln.text, "- ") {
		return p.parseSeq(indent)
	}
	if _, _, ok := splitKey(ln.text); ok {
		return p.parseMap(indent)
	}
	// A single scalar line.
	p.pos++
	return parseScalar(ln.text, ln.num)
}

func (p *yamlParser) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("scenario: line %d: unexpected indentation", ln.num)
		}
		keyText, rest, ok := splitKey(ln.text)
		if !ok {
			return nil, fmt.Errorf("scenario: line %d: expected \"key: value\", got %q", ln.num, ln.text)
		}
		key, err := unquoteKey(keyText, ln.num)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("scenario: line %d: duplicate key %q", ln.num, key)
		}
		p.pos++
		if rest != "" {
			v, err := parseInline(rest, ln.num)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		// Block value on the following more-indented lines, or null.
		if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			v, err := p.parseValue(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			m[key] = v
		} else {
			m[key] = nil
		}
	}
	return m, nil
}

func (p *yamlParser) parseSeq(indent int) (any, error) {
	var seq []any
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent || (ln.text != "-" && !strings.HasPrefix(ln.text, "- ")) {
			if ln.indent > indent {
				return nil, fmt.Errorf("scenario: line %d: unexpected indentation", ln.num)
			}
			break
		}
		if ln.text == "-" {
			// The item is a nested block on the following lines.
			p.pos++
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				v, err := p.parseValue(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				seq = append(seq, v)
			} else {
				seq = append(seq, nil)
			}
			continue
		}
		rest := strings.TrimLeft(ln.text[2:], " ")
		itemIndent := indent + (len(ln.text) - len(rest))
		if _, _, isMap := splitKey(rest); isMap {
			// "- key: value" opens a map whose further keys sit at itemIndent.
			p.lines[p.pos] = yamlLine{num: ln.num, indent: itemIndent, text: rest}
			v, err := p.parseMap(itemIndent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		p.pos++
		v, err := parseInline(rest, ln.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

// splitKey splits "key: rest" (or "key:") at the first top-level colon that
// ends a mapping key. Returns ok=false for plain scalars.
func splitKey(s string) (key, rest string, ok bool) {
	var quote byte
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(s) {
				return s[:i], "", true
			}
			if s[i+1] == ' ' {
				return s[:i], strings.TrimSpace(s[i+1:]), true
			}
		}
	}
	return "", "", false
}

func unquoteKey(s string, lineNum int) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') {
		v, err := parseScalar(s, lineNum)
		if err != nil {
			return "", err
		}
		str, ok := v.(string)
		if !ok {
			return "", fmt.Errorf("scenario: line %d: invalid map key %q", lineNum, s)
		}
		return str, nil
	}
	if s == "" {
		return "", fmt.Errorf("scenario: line %d: empty map key", lineNum)
	}
	return s, nil
}

// maxFlowDepth bounds flow-collection nesting so a pathological
// "[[[[..." document errors instead of exhausting the stack.
const maxFlowDepth = 64

// parseInline parses an inline value: a flow list, a flow map, or a scalar.
func parseInline(s string, lineNum int) (any, error) {
	return parseInlineDepth(s, lineNum, 0)
}

func parseInlineDepth(s string, lineNum, depth int) (any, error) {
	if depth > maxFlowDepth {
		return nil, fmt.Errorf("scenario: line %d: flow nesting deeper than %d levels", lineNum, maxFlowDepth)
	}
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("scenario: line %d: unterminated flow list %q", lineNum, s)
		}
		parts, err := splitFlow(s[1:len(s)-1], lineNum)
		if err != nil {
			return nil, err
		}
		seq := []any{}
		for _, part := range parts {
			v, err := parseInlineDepth(part, lineNum, depth+1)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		}
		return seq, nil
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, fmt.Errorf("scenario: line %d: unterminated flow map %q", lineNum, s)
		}
		parts, err := splitFlow(s[1:len(s)-1], lineNum)
		if err != nil {
			return nil, err
		}
		m := map[string]any{}
		for _, part := range parts {
			keyText, rest, ok := splitKey(part)
			if !ok {
				// Allow "key:" with no space inside flow maps: {a:1} is a
				// common slip; report it clearly rather than guessing.
				return nil, fmt.Errorf("scenario: line %d: flow map entry %q is not \"key: value\"", lineNum, part)
			}
			key, err := unquoteKey(keyText, lineNum)
			if err != nil {
				return nil, err
			}
			if _, dup := m[key]; dup {
				return nil, fmt.Errorf("scenario: line %d: duplicate key %q", lineNum, key)
			}
			v, err := parseInlineDepth(rest, lineNum, depth+1)
			if err != nil {
				return nil, err
			}
			m[key] = v
		}
		return m, nil
	default:
		return parseScalar(s, lineNum)
	}
}

// splitFlow splits a flow body on top-level commas.
func splitFlow(s string, lineNum int) ([]string, error) {
	var parts []string
	var quote byte
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("scenario: line %d: unbalanced brackets in %q", lineNum, s)
			}
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("scenario: line %d: unbalanced brackets in %q", lineNum, s)
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" || len(parts) > 0 {
		parts = append(parts, s[start:])
	}
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("scenario: line %d: empty flow entry", lineNum)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseScalar converts a scalar token: quoted strings, null, booleans,
// integers, floats; anything else (including durations like "250ms") stays a
// string.
func parseScalar(s string, lineNum int) (any, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		v, err := strconv.Unquote(s)
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: bad quoted string %s", lineNum, s)
		}
		return v, nil
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	switch s {
	case "null", "~", "":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if strings.ContainsAny(s, "0123456789") && !strings.ContainsAny(s, " ") {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f, nil
		}
	}
	return s, nil
}
