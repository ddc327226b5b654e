// Package scenario is the declarative scenario engine: it parses a
// YAML-subset scenario file into fleet templates, startup patterns, a
// timed event track, seeded stress blocks and first-class assertions,
// expands it into a deterministic action plan (all randomness from
// internal/rng streams derived from the run seed), and executes the
// plan on either runtime — the deterministic simulator or the live
// goroutine runtime — producing a machine-readable pass/fail report.
//
// The decoder below is a deliberately small, hand-rolled YAML subset
// (the module builds offline on the standard library alone, so no external
// YAML dependency): block mappings, block sequences, flow sequences
// ([a, b] and [[0,1],[2,3]]), double-quoted scalars and # comments.
// Anchors, multi-document streams, block scalars and tabs are not
// supported and are reported as errors with line numbers.
package scenario

import (
	"fmt"
	"strings"
)

// yKind discriminates parsed nodes.
type yKind int

const (
	yScalar yKind = iota
	yMap
	ySeq
)

// yNode is one parsed YAML node.
type yNode struct {
	kind   yKind
	line   int
	scalar string   // yScalar
	keys   []string // yMap, in file order
	vals   []*yNode // yMap, parallel to keys
	items  []*yNode // ySeq
}

// get returns the value for key in a mapping, nil when absent.
func (n *yNode) get(key string) *yNode {
	if n == nil || n.kind != yMap {
		return nil
	}
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

// kindName renders a node kind for error messages.
func kindName(k yKind) string {
	switch k {
	case yScalar:
		return "scalar"
	case yMap:
		return "mapping"
	default:
		return "sequence"
	}
}

// yamlError is a positioned parse/decode error.
type yamlError struct {
	line int
	msg  string
}

func (e *yamlError) Error() string {
	if e.line > 0 {
		return fmt.Sprintf("line %d: %s", e.line, e.msg)
	}
	return e.msg
}

func yerrf(line int, format string, args ...any) error {
	return &yamlError{line: line, msg: fmt.Sprintf(format, args...)}
}

// srcLine is one significant input line.
type srcLine struct {
	num    int    // 1-based line number
	indent int    // leading spaces
	text   string // content after indentation, comments stripped
}

// maxFlowDepth bounds nesting of flow sequences; maxBlockDepth bounds
// block-structure nesting, so hostile inputs cannot overflow the stack.
const (
	maxFlowDepth  = 32
	maxBlockDepth = 64
)

// parseYAML parses one document into its root node (a mapping for every
// well-formed scenario file, but any node kind is accepted at the root).
func parseYAML(src []byte) (*yNode, error) {
	lines, err := splitLines(string(src))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, yerrf(0, "empty document")
	}
	p := &yParser{lines: lines}
	root, err := p.parseBlock(lines[0].indent, 0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, yerrf(l.num, "unexpected content %q (indented less than the document root?)", l.text)
	}
	return root, nil
}

// splitLines strips comments and blanks and measures indentation.
func splitLines(src string) ([]srcLine, error) {
	var out []srcLine
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		if strings.ContainsRune(raw, '\t') {
			return nil, yerrf(num, "tabs are not allowed; indent with spaces")
		}
		text := stripComment(raw)
		trimmed := strings.TrimLeft(text, " ")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "---") {
			return nil, yerrf(num, "multi-document streams are not supported")
		}
		out = append(out, srcLine{
			num:    num,
			indent: len(text) - len(trimmed),
			text:   strings.TrimRight(trimmed, " "),
		})
	}
	return out, nil
}

// stripComment removes a trailing # comment, respecting double quotes.
// A '#' starts a comment at the start of the line or after a space.
func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if !inQuote {
				inQuote = true
			} else if i == 0 || s[i-1] != '\\' {
				inQuote = false
			}
		case '#':
			if !inQuote && (i == 0 || s[i-1] == ' ') {
				return s[:i]
			}
		}
	}
	return s
}

// yParser consumes srcLines front to back.
type yParser struct {
	lines []srcLine
	pos   int
}

func (p *yParser) peek() (srcLine, bool) {
	if p.pos >= len(p.lines) {
		return srcLine{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses the block node starting at the current line, which
// must be indented exactly `indent`. Lines indented less end the block.
func (p *yParser) parseBlock(indent, depth int) (*yNode, error) {
	if depth > maxBlockDepth {
		l, _ := p.peek()
		return nil, yerrf(l.num, "nesting deeper than %d levels", maxBlockDepth)
	}
	first, ok := p.peek()
	if !ok || first.indent < indent {
		return nil, yerrf(first.num, "expected an indented block")
	}
	if first.indent > indent {
		return nil, yerrf(first.num, "unexpected indent %d (expected %d)", first.indent, indent)
	}
	if first.text == "-" || strings.HasPrefix(first.text, "- ") {
		return p.parseSeq(indent, depth)
	}
	return p.parseMap(indent, depth)
}

// parseSeq parses "- item" lines at the given indent.
func (p *yParser) parseSeq(indent, depth int) (*yNode, error) {
	node := &yNode{kind: ySeq, line: p.lines[p.pos].num}
	for {
		l, ok := p.peek()
		if !ok || l.indent < indent {
			return node, nil
		}
		if l.indent > indent {
			return nil, yerrf(l.num, "unexpected indent %d inside sequence (expected %d)", l.indent, indent)
		}
		if l.text != "-" && !strings.HasPrefix(l.text, "- ") {
			return nil, yerrf(l.num, "expected '- item' at indent %d, got %q", indent, l.text)
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
		p.pos++
		if rest == "" {
			// The item is the following more-indented block.
			nl, ok := p.peek()
			if !ok || nl.indent <= indent {
				node.items = append(node.items, &yNode{kind: yScalar, line: l.num})
				continue
			}
			item, err := p.parseBlock(nl.indent, depth+1)
			if err != nil {
				return nil, err
			}
			node.items = append(node.items, item)
			continue
		}
		if key, val, isEntry := splitEntry(rest); isEntry {
			// "- key: value" opens an inline mapping whose further keys
			// sit on following lines indented past the dash.
			item, err := p.parseInlineMap(l, indent, key, val, depth+1)
			if err != nil {
				return nil, err
			}
			node.items = append(node.items, item)
			continue
		}
		sc, err := parseScalarValue(rest, l.num)
		if err != nil {
			return nil, err
		}
		node.items = append(node.items, sc)
	}
}

// parseInlineMap handles a mapping whose first entry shares the line
// with a sequence dash: the remaining entries are the following lines
// indented strictly past the dash column.
func (p *yParser) parseInlineMap(l srcLine, dashIndent int, key, val string, depth int) (*yNode, error) {
	node := &yNode{kind: yMap, line: l.num}
	if err := p.addEntry(node, l, key, val, dashIndent+2, depth); err != nil {
		return nil, err
	}
	// Continuation lines: the first deeper line fixes the indent.
	cont, ok := p.peek()
	if !ok || cont.indent <= dashIndent {
		return node, nil
	}
	contIndent := cont.indent
	for {
		cl, ok := p.peek()
		if !ok || cl.indent < contIndent {
			return node, nil
		}
		if cl.indent > contIndent {
			return nil, yerrf(cl.num, "unexpected indent %d inside mapping (expected %d)", cl.indent, contIndent)
		}
		if cl.text == "-" || strings.HasPrefix(cl.text, "- ") {
			return nil, yerrf(cl.num, "sequence item where a mapping entry was expected")
		}
		k, v, isEntry := splitEntry(cl.text)
		if !isEntry {
			return nil, yerrf(cl.num, "expected 'key: value', got %q", cl.text)
		}
		p.pos++
		if err := p.addEntry(node, cl, k, v, contIndent+1, depth); err != nil {
			return nil, err
		}
	}
}

// parseMap parses "key: value" / "key:" lines at the given indent.
func (p *yParser) parseMap(indent, depth int) (*yNode, error) {
	node := &yNode{kind: yMap, line: p.lines[p.pos].num}
	for {
		l, ok := p.peek()
		if !ok || l.indent < indent {
			return node, nil
		}
		if l.indent > indent {
			return nil, yerrf(l.num, "unexpected indent %d inside mapping (expected %d)", l.indent, indent)
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			return nil, yerrf(l.num, "sequence item where a mapping entry was expected")
		}
		key, val, isEntry := splitEntry(l.text)
		if !isEntry {
			return nil, yerrf(l.num, "expected 'key: value', got %q", l.text)
		}
		p.pos++
		if err := p.addEntry(node, l, key, val, indent+1, depth); err != nil {
			return nil, err
		}
	}
}

// addEntry decodes one mapping entry: an inline scalar value, or (with
// an empty value) the following block indented at least minChildIndent.
func (p *yParser) addEntry(node *yNode, l srcLine, key, val string, minChildIndent, depth int) error {
	for _, k := range node.keys {
		if k == key {
			return yerrf(l.num, "duplicate key %q", key)
		}
	}
	var child *yNode
	var err error
	if val != "" {
		child, err = parseScalarValue(val, l.num)
	} else {
		nl, ok := p.peek()
		if ok && nl.indent >= minChildIndent {
			child, err = p.parseBlock(nl.indent, depth+1)
		} else {
			child = &yNode{kind: yScalar, line: l.num} // empty value
		}
	}
	if err != nil {
		return err
	}
	node.keys = append(node.keys, key)
	node.vals = append(node.vals, child)
	return nil
}

// splitEntry splits "key: value" (or "key:"), reporting whether the
// line is a mapping entry at all. Keys are bare identifiers.
func splitEntry(s string) (key, val string, ok bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return "", "", false
	}
	key = s[:i]
	for _, r := range key {
		if !(r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return "", "", false
		}
	}
	rest := s[i+1:]
	if rest != "" && !strings.HasPrefix(rest, " ") {
		return "", "", false // "a:b" is a scalar, not an entry
	}
	return key, strings.TrimSpace(rest), true
}

// parseScalarValue parses an inline value: a flow sequence, a quoted
// string, or a bare scalar.
func parseScalarValue(s string, line int) (*yNode, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") {
		n, rest, err := parseFlow(s, line, 0)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, yerrf(line, "trailing content %q after flow sequence", rest)
		}
		return n, nil
	}
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "|") || strings.HasPrefix(s, ">") {
		return nil, yerrf(line, "unsupported YAML feature in %q (flow mappings, anchors and block scalars are outside the subset)", s)
	}
	v, err := unquoteScalar(s, line)
	if err != nil {
		return nil, err
	}
	return &yNode{kind: yScalar, line: line, scalar: v}, nil
}

// parseFlow parses "[a, b, [c, d]]" returning the node and the unparsed
// remainder of s.
func parseFlow(s string, line, depth int) (*yNode, string, error) {
	if depth > maxFlowDepth {
		return nil, "", yerrf(line, "flow sequence nested deeper than %d levels", maxFlowDepth)
	}
	if !strings.HasPrefix(s, "[") {
		return nil, "", yerrf(line, "expected '[' in flow sequence")
	}
	node := &yNode{kind: ySeq, line: line}
	s = strings.TrimSpace(s[1:])
	for {
		if s == "" {
			return nil, "", yerrf(line, "unterminated flow sequence")
		}
		if strings.HasPrefix(s, "]") {
			return node, s[1:], nil
		}
		var item *yNode
		var err error
		if strings.HasPrefix(s, "[") {
			item, s, err = parseFlow(s, line, depth+1)
			if err != nil {
				return nil, "", err
			}
		} else {
			// Scalar up to the next comma or closing bracket.
			end := strings.IndexAny(s, ",]")
			if end < 0 {
				return nil, "", yerrf(line, "unterminated flow sequence")
			}
			raw := strings.TrimSpace(s[:end])
			if raw == "" {
				return nil, "", yerrf(line, "empty element in flow sequence")
			}
			v, uerr := unquoteScalar(raw, line)
			if uerr != nil {
				return nil, "", uerr
			}
			item = &yNode{kind: yScalar, line: line, scalar: v}
			s = s[end:]
		}
		node.items = append(node.items, item)
		s = strings.TrimSpace(s)
		if strings.HasPrefix(s, ",") {
			s = strings.TrimSpace(s[1:])
		} else if !strings.HasPrefix(s, "]") {
			return nil, "", yerrf(line, "expected ',' or ']' in flow sequence, got %q", s)
		}
	}
}

// unquoteScalar resolves double-quoted strings; bare scalars pass
// through verbatim.
func unquoteScalar(s string, line int) (string, error) {
	if !strings.HasPrefix(s, "\"") {
		return s, nil
	}
	var b strings.Builder
	escaped := false
	for i := 1; i < len(s); i++ {
		c := s[i]
		if escaped {
			switch c {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(c)
			default:
				return "", yerrf(line, "unsupported escape \\%c", c)
			}
			escaped = false
			continue
		}
		switch c {
		case '\\':
			escaped = true
		case '"':
			if i != len(s)-1 {
				return "", yerrf(line, "trailing content after closing quote in %q", s)
			}
			return b.String(), nil
		default:
			b.WriteByte(c)
		}
	}
	return "", yerrf(line, "unterminated quoted string %q", s)
}
