// Package eventguard defines an analyzer preserving the PR-1
// observability contract: with tracing/metrics disabled, the
// instrumentation must cost one pointer comparison and allocate nothing.
//
// Two rules realize that:
//
//  1. Call sites (hot-path packages): a method call whose receiver is a
//     *trace.Tracer or *metrics.Registry must be lexically protected by
//     a nil check of that same receiver — either enclosed in
//     "if tr != nil { ... }" or preceded by "if tr == nil { return }".
//     Even though a nil *Tracer's methods return immediately, the
//     arguments (trace.A attrs, label maps) are evaluated and allocated
//     before the call; the guard is what keeps the disabled path free.
//
//  2. Declarations: every exported pointer-receiver method on the
//     run-wide sinks — core.Events, core.DecisionLog, trace.Tracer and
//     stats.Set — must begin with a nil-receiver guard, so emitters stay
//     callable on a disabled (nil) instance.
package eventguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/lintutil"
)

const doc = `require nil-guards around tracer/metrics emitters and on Events/Tracer methods

See package documentation. Suppress with //lint:ignore eventguard — <reason>.`

// Analyzer is the eventguard pass.
var Analyzer = &lintutil.Analyzer{Name: "eventguard", Doc: doc, Run: run}

// hotpath lists the package-path suffixes whose call sites rule 1
// applies to.
var hotpath = []string{"internal/core", "internal/live"}

func run(pass *lintutil.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				checkDeclaration(pass, fd)
			}
		}
	}
	if lintutil.PkgMatch(pass.Pkg.Path(), hotpath) {
		checkCallSites(pass)
	}
}

// --- rule 2: declarations ---

// checkDeclaration enforces the nil-receiver guard on exported methods
// of the run-wide sink types.
func checkDeclaration(pass *lintutil.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || !fd.Name.IsExported() || fd.Body == nil {
		return
	}
	rt := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if rt == nil {
		return
	}
	if _, isPtr := types.Unalias(rt).(*types.Pointer); !isPtr {
		return // value receivers cannot be nil
	}
	if !lintutil.IsNamed(rt, "internal/trace", "Tracer") &&
		!lintutil.IsNamed(rt, "internal/core", "Events") &&
		!lintutil.IsNamed(rt, "internal/core", "DecisionLog") &&
		!lintutil.IsNamed(rt, "internal/stats", "Set") {
		return
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return // receiver unused: nothing to dereference
	}
	if !startsWithNilGuard(fd.Body, names[0].Name) {
		pass.Reportf(fd.Name.Pos(),
			"exported method %s.%s must begin with a nil-receiver guard (if %s == nil { ... return })",
			lintutil.NamedPointee(rt).Obj().Name(), fd.Name.Name, names[0].Name)
	}
}

// startsWithNilGuard reports whether the body's first statement is
// "if recv == nil { ... return }" (the guard body may build a zero
// result before returning).
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	if !condHasNilCheck(ifs.Cond, recv, token.EQL) {
		return false
	}
	if n := len(ifs.Body.List); n > 0 {
		_, isRet := ifs.Body.List[n-1].(*ast.ReturnStmt)
		return isRet
	}
	return false
}

// condHasNilCheck reports whether the condition contains the comparison
// "<recv> <op> nil" (op is EQL or NEQ), looking through parentheses and
// the boolean connectives.
func condHasNilCheck(cond ast.Expr, recv string, op token.Token) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condHasNilCheck(e.X, recv, op)
	case *ast.BinaryExpr:
		if e.Op == token.LAND || e.Op == token.LOR {
			return condHasNilCheck(e.X, recv, op) || condHasNilCheck(e.Y, recv, op)
		}
		if e.Op != op {
			return false
		}
		x, y := lintutil.ExprString(e.X), lintutil.ExprString(e.Y)
		return (x == recv && y == "nil") || (y == recv && x == "nil")
	}
	return false
}

// --- rule 1: call sites ---

func checkCallSites(pass *lintutil.Pass) {
	lintutil.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !tv.IsValue() || !isSink(tv.Type) {
			return
		}
		// Inside the sink's own package the receiver is the live
		// instance being implemented; the contract binds users.
		if named := lintutil.NamedPointee(tv.Type); named != nil && named.Obj().Pkg() == pass.Pkg {
			return
		}
		recv := lintutil.ExprString(sel.X)
		if _, chained := sel.X.(*ast.CallExpr); !chained && guarded(stack, recv) {
			return
		}
		pass.Reportf(call.Pos(),
			"call to (%s).%s is not nil-guarded; bind the sink first (if v := ...; v != nil { v.%s(...) }) to keep the disabled path allocation-free",
			tv.Type.String(), sel.Sel.Name, sel.Sel.Name)
	})
}

// isSink reports whether typ is *trace.Tracer or *metrics.Registry (the
// run-wide observability sinks that are nil when disabled).
func isSink(typ types.Type) bool {
	if _, isPtr := types.Unalias(typ).(*types.Pointer); !isPtr {
		return false
	}
	return lintutil.IsNamed(typ, "internal/trace", "Tracer") ||
		lintutil.IsNamed(typ, "internal/metrics", "Registry")
}

// guarded reports whether the innermost statement containing the call is
// protected by a nil check of recv: enclosed in the body of an
// "if ... recv != nil ..." statement, or preceded in an enclosing block
// by an early-return "if ... recv == nil ... { return }".
func guarded(stack []ast.Node, recv string) bool {
	for i := len(stack) - 1; i > 0; i-- {
		switch parent := stack[i-1].(type) {
		case *ast.IfStmt:
			// Only the then-branch is protected by a != nil condition.
			if parent.Body == stack[i] && condHasNilCheck(parent.Cond, recv, token.NEQ) {
				return true
			}
		case *ast.BlockStmt:
			child := stack[i]
			for _, st := range parent.List {
				if st == child {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if !ok || !condHasNilCheck(ifs.Cond, recv, token.EQL) {
					continue
				}
				if n := len(ifs.Body.List); n > 0 {
					if _, isRet := ifs.Body.List[n-1].(*ast.ReturnStmt); isRet {
						return true
					}
				}
			}
		}
	}
	return false
}
