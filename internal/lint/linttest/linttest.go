// Package linttest runs one p2plint analyzer over a testdata package
// and compares its diagnostics against "// want" expectations. The
// package is type-checked by srcload.Check, the step the real loader
// uses, with its imports resolved from caller-supplied fake packages
// first and the standard library's source importer second.
//
// Expectation syntax, as in analysistest: a comment
//
//	// want "regexp" "another regexp"
//
// on a line means the analyzer must report exactly those diagnostics on
// that line (each matched by its regexp). Diagnostics on lines without
// a matching expectation, and expectations never matched, both fail the
// test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/srcload"
)

// Target describes the package a test analyzes.
type Target struct {
	// Dir holds the package's .go files.
	Dir string
	// Path is the import path the package is type-checked as; the
	// analyzers' package scoping matches on its suffix.
	Path string
	// Deps maps import paths to directories of fake dependency
	// packages (e.g. "time" -> "testdata/src/faketime"). Imports not
	// listed here resolve through the standard library source importer.
	Deps map[string]string
}

// Run type-checks the target and asserts the analyzer's diagnostics
// against the target's "// want" comments.
func Run(t *testing.T, a *lintutil.Analyzer, tgt Target) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &fakeImporter{
		fset: fset,
		deps: tgt.Deps,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
	}
	pkg, err := srcload.Check(fset, tgt.Path, tgt.Dir, imp)
	if err != nil {
		t.Fatalf("loading %s: %v", tgt.Dir, err)
	}
	var diags []diagnostic
	lintutil.Run(a, fset, pkg, func(pos token.Pos, msg string) {
		diags = append(diags, diagnostic{pos, msg})
	})
	compare(t, fset, pkg.Files, diags)
}

// fakeImporter resolves imports from the fake local packages first,
// then the standard library's source importer.
type fakeImporter struct {
	fset *token.FileSet
	deps map[string]string
	std  types.Importer
	pkgs map[string]*types.Package
}

// Import implements types.Importer.
func (l *fakeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.deps[path]
	if !ok {
		return l.std.Import(path)
	}
	pkg, err := srcload.Check(l.fset, path, dir, l)
	if err != nil {
		return nil, fmt.Errorf("dep %s: %w", path, err)
	}
	l.pkgs[path] = pkg.Pkg
	return pkg.Pkg, nil
}

type diagnostic struct {
	pos token.Pos
	msg string
}

// --- expectation matching ---

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var quoted = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// wants extracts the expectations from the files' comments.
func wants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The marker may open the comment or trail other content
				// (e.g. a //lint: directive that is itself expected to be
				// reported carries its expectation in the same comment).
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 || (idx > 0 && !strings.HasPrefix(c.Text, "//")) {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				pos := fset.Position(c.Pos())
				for _, q := range quoted.FindAllString(rest, -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, s, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// compare reconciles diagnostics with expectations.
func compare(t *testing.T, fset *token.FileSet, files []*ast.File, diags []diagnostic) {
	t.Helper()
	exps := wants(t, fset, files)
	sort.Slice(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	for _, d := range diags {
		pos := fset.Position(d.pos)
		matched := false
		for _, e := range exps {
			if !e.hit && e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(d.msg) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.msg)
		}
	}
	for _, e := range exps {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}
