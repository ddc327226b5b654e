package lintutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// This file implements the suppression plane every analyzer's findings
// pass through (Pass.Reportf). The justification is mandatory, and the
// directives are themselves checked: a directive that never suppresses
// anything is reported, so stale escapes cannot accumulate silently.
//
// Two forms are recognised:
//
//	//lint:ignore <analyzer> — <reason>
//	//lint:maporder commutative — <reason>
//
// The reason is required and follows an em-dash (—) or a double dash
// (--). The directive acts on its own line and the line directly below
// it (so it can sit above the offending statement), or suppresses a
// diagnostic on its own line when written as a trailing comment.

// directive is one parsed //lint: control comment.
type directive struct {
	// analyzer is the analyzer the directive addresses.
	analyzer string
	// kind is "ignore" for the generic form, or the analyzer-specific
	// verb ("commutative" for //lint:maporder commutative).
	kind string
	// reason is the mandatory justification after the dash; empty when
	// the author forgot it (reported by finish).
	reason string
	// pos/file/line locate the directive comment itself.
	pos  token.Pos
	file string
	line int

	used bool
}

const (
	ignorePrefix   = "//lint:ignore "
	maporderPrefix = "//lint:maporder "
)

// splitReason separates "rest — reason" into (rest, reason).
func splitReason(s string) (string, string) {
	for _, dash := range []string{"—", "--"} {
		if head, tail, ok := strings.Cut(s, dash); ok {
			return strings.TrimSpace(head), strings.TrimSpace(tail)
		}
	}
	return strings.TrimSpace(s), ""
}

// parseDirective parses one comment, returning nil when it is not a
// lint directive.
func parseDirective(fset *token.FileSet, c *ast.Comment) *directive {
	text := c.Text
	// Fixture files append their "// want" expectation to the directive
	// comment itself; it is not part of the reason.
	if i := strings.Index(text, "// want "); i > 0 {
		text = strings.TrimSpace(text[:i])
	}
	p := fset.Position(c.Pos())
	d := &directive{pos: c.Pos(), file: p.Filename, line: p.Line}
	switch {
	case strings.HasPrefix(text, ignorePrefix):
		head, reason := splitReason(strings.TrimPrefix(text, ignorePrefix))
		name, _, _ := strings.Cut(head, " ")
		if name == "" {
			return nil
		}
		d.analyzer, d.kind, d.reason = name, "ignore", reason
	case strings.HasPrefix(text, maporderPrefix):
		head, reason := splitReason(strings.TrimPrefix(text, maporderPrefix))
		verb, _, _ := strings.Cut(head, " ")
		if verb != "commutative" {
			return nil
		}
		d.analyzer, d.kind, d.reason = "maporder", "commutative", reason
	default:
		return nil
	}
	return d
}

// ReportUnknown reports each //lint:ignore directive in files that names
// no analyzer in known. No analyzer's suppressor collects such a
// directive, so it would suppress nothing and never be reported as
// unused.
func ReportUnknown(fset *token.FileSet, files []*ast.File, known []string, report func(token.Pos, string)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d := parseDirective(fset, c); d != nil && !slices.Contains(known, d.analyzer) {
					report(d.pos, fmt.Sprintf("//lint:ignore %s names no known analyzer (%s)", d.analyzer, strings.Join(known, ", ")))
				}
			}
		}
	}
}

// suppressor holds the directives addressed to one analyzer in one
// package and tracks which of them actually suppressed a diagnostic.
type suppressor struct {
	fset       *token.FileSet
	analyzer   string
	directives []*directive
}

// newSuppressor collects the directives for the named analyzer from
// the files.
func newSuppressor(fset *token.FileSet, files []*ast.File, analyzer string) *suppressor {
	s := &suppressor{fset: fset, analyzer: analyzer}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d := parseDirective(fset, c); d != nil && d.analyzer == analyzer {
					s.directives = append(s.directives, d)
				}
			}
		}
	}
	return s
}

// mark reports whether a directive of the given kind covers pos (same
// file, and same line or the line above), marking it used. A directive with a missing
// reason still counts — the missing reason is reported once, by
// finish, at the directive itself.
func (s *suppressor) mark(pos token.Pos, kind string) bool {
	p := s.fset.Position(pos)
	for _, d := range s.directives {
		if d.kind == kind && d.file == p.Filename && (d.line == p.Line || d.line == p.Line-1) {
			d.used = true
			return true
		}
	}
	return false
}

// suppressed reports whether a //lint:ignore directive covers pos.
func (s *suppressor) suppressed(pos token.Pos) bool { return s.mark(pos, "ignore") }

// finish reports the defective directives: a missing justification, or
// a directive that suppressed nothing (stale escape).
func (s *suppressor) finish(report func(token.Pos, string)) {
	for _, d := range s.directives {
		verb := "//lint:ignore " + d.analyzer
		if d.kind != "ignore" {
			verb = "//lint:" + d.analyzer + " " + d.kind
		}
		if d.used && d.reason == "" {
			report(d.pos, verb+" needs a written justification: "+verb+" — <reason>")
		}
		if !d.used {
			report(d.pos, "unused "+verb+" directive: no "+s.analyzer+" diagnostic here to suppress (delete it, or it hides a future regression)")
		}
	}
}
