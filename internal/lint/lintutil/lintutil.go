// Package lintutil is the small framework the p2plint analyzers run on:
// the Analyzer and Pass types, the //lint: suppression plane every
// finding passes through (directive.go), the machine-readable findings
// (json.go), and the AST and type helpers the analyzers share.
package lintutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/srcload"
)

// Analyzer is one p2plint check.
type Analyzer struct {
	// Name is the analyzer's name in findings and in //lint:ignore
	// directives.
	Name string
	// Doc states the invariant the analyzer enforces.
	Doc string
	// Run inspects one package and reports through the pass.
	Run func(*Pass)
}

// Pass is an analyzer's view of one type-checked package. The files
// are the package's non-test files (srcload never loads _test.go).
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(pos token.Pos, msg string)
	sup    *suppressor
}

// Run runs a over pkg. Every finding that no //lint:ignore directive
// for a suppresses goes to report; then the package's defective
// directives for a (reasonless or unused) go to report too.
func Run(a *Analyzer, fset *token.FileSet, pkg *srcload.Package, report func(pos token.Pos, msg string)) {
	pass := &Pass{
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
		report:    report,
		sup:       newSuppressor(fset, pkg.Files, a.Name),
	}
	a.Run(pass)
	pass.sup.finish(report)
}

// Reportf reports a finding at pos unless a //lint:ignore directive on
// the same line or the line above suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.sup.suppressed(pos) {
		return
	}
	p.report(pos, fmt.Sprintf(format, args...))
}

// Justified reports whether an analyzer-specific directive of the
// given kind (e.g. "commutative") covers pos, marking it used.
func (p *Pass) Justified(pos token.Pos, kind string) bool {
	return p.sup.mark(pos, kind)
}

// WithStack walks every file depth-first, calling f on each node with
// the path from the file down to it (the node itself last).
func WithStack(files []*ast.File, f func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			f(n, stack)
			return true
		})
	}
}

// StaticCallee returns the function or concrete method a call invokes,
// looking through explicit instantiation (f[int](x)); for an
// instantiated generic function it returns the generic declaration. It
// returns nil for builtins, conversions, calls of function values, and
// interface-method calls (dynamic dispatch).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified
		}
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}

// PkgMatch reports whether path is, or ends with, one of the patterns
// (each pattern a slash-separated path suffix like "internal/core").
// Suffix matching keeps the analyzers usable from testdata modules whose
// package paths only share the tail with the real tree.
func PkgMatch(path string, patterns []string) bool {
	for _, p := range patterns {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// NamedPointee returns the named type T when typ is T or *T (looking
// through aliases), else nil.
func NamedPointee(typ types.Type) *types.Named {
	typ = types.Unalias(typ)
	if p, ok := typ.(*types.Pointer); ok {
		typ = types.Unalias(p.Elem())
	}
	n, _ := typ.(*types.Named)
	return n
}

// IsNamed reports whether typ is the named type (or pointer to it) with
// the given name declared in a package whose path matches pkgSuffix.
func IsNamed(typ types.Type, pkgSuffix, name string) bool {
	n := NamedPointee(typ)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && PkgMatch(n.Obj().Pkg().Path(), []string{pkgSuffix})
}

// ExprString renders an expression the way types.ExprString does; the
// analyzers compare receiver expressions textually when deciding whether
// a nil-guard or a lock statement refers to the same value.
func ExprString(e ast.Expr) string { return types.ExprString(e) }
