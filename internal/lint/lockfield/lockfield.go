// Package lockfield defines a heuristic analyzer for the repo's
// documented locking discipline: a struct field whose declaration
// carries a "guarded by mu" comment may only be read or written after
// the struct's mutex is acquired.
//
// The check is lexical, not a happens-before proof: an access to an
// annotated field (including fields promoted through an annotated
// embedded struct, as in core.Events) is accepted when, inside the
// enclosing function, a <recv>.mu.Lock() or <recv>.mu.RLock() call on
// the same receiver expression appears before the access, or when the
// enclosing function's name ends in "Locked" (the convention for
// helpers whose callers hold the mutex). Mutations — assignment targets
// (directly or through an index, sub-field, or dereference),
// increments, address-of, and delete on a guarded map — are held to the
// stronger requirement: only the full Lock qualifies, since writing
// under an RLock races with every other reader. Anything else is
// reported.
// Suppress a deliberate exception with //lint:ignore lockfield — <reason>.
//
// The analyzer also reports annotations it cannot honor: a
// "guarded by mu" comment on a field of a struct that has no mu field.
package lockfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/lintutil"
)

const doc = `check that fields annotated "guarded by mu" are accessed under the mutex

See package documentation. Suppress with //lint:ignore lockfield — <reason>.`

// Annotation is the comment marker, matched case-insensitively anywhere
// in the field's trailing or doc comment.
const Annotation = "guarded by mu"

// Analyzer is the lockfield pass.
var Analyzer = &lintutil.Analyzer{Name: "lockfield", Doc: doc, Run: run}

// guardedField identifies one annotated field as (struct type, field
// index) in the struct's field order.
type guardedField struct {
	typ   *types.Named
	index int
}

func run(pass *lintutil.Pass) {
	if guardedSet := collect(pass); len(guardedSet) > 0 {
		checkAccesses(pass, guardedSet)
	}
}

// hasComment reports whether the field's doc or trailing comment
// contains the annotation.
func hasComment(f *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg != nil && strings.Contains(strings.ToLower(cg.Text()), Annotation) {
			return true
		}
	}
	return false
}

// collect finds annotated fields and validates that their structs carry
// a mu field to be guarded by.
func collect(pass *lintutil.Pass) map[guardedField]bool {
	out := map[guardedField]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				collectStruct(pass, ts, out)
			}
			return true
		})
	}
	return out
}

// collectStruct records the annotated fields of one struct type.
func collectStruct(pass *lintutil.Pass, ts *ast.TypeSpec, out map[guardedField]bool) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Defs[ts.Name]
	if !ok {
		return
	}
	named, ok := types.Unalias(obj.Type()).(*types.Named)
	if !ok {
		return
	}
	hasMu := false
	idx := 0
	for _, f := range st.Fields.List {
		n := len(f.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		for _, name := range f.Names {
			if name.Name == "mu" {
				hasMu = true
			}
		}
		if hasComment(f) {
			for k := 0; k < n; k++ {
				out[guardedField{named, idx + k}] = true
			}
			if !hasMu { // mu must precede the fields it guards
				pass.Reportf(f.Pos(),
					"field of %s is annotated %q but no mu field precedes it in the struct",
					named.Obj().Name(), Annotation)
			}
		}
		idx += n
	}
}

// checkAccesses walks every selector that resolves to an annotated field
// (directly or through promotion) and verifies the lock discipline.
func checkAccesses(pass *lintutil.Pass, guardedSet map[guardedField]bool) {
	lintutil.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.TypesInfo.Selections[se]
		if !ok || selection.Kind() != types.FieldVal || len(selection.Index()) == 0 {
			return
		}
		recvType := types.Unalias(selection.Recv())
		if p, isPtr := recvType.(*types.Pointer); isPtr {
			recvType = types.Unalias(p.Elem())
		}
		named, ok := recvType.(*types.Named)
		if !ok || !guardedSet[guardedField{named, selection.Index()[0]}] {
			return
		}
		write := isWrite(pass, stack, se)
		if lockHeld(stack, lintutil.ExprString(se.X), write) {
			return
		}
		if write && lockHeld(stack, lintutil.ExprString(se.X), false) {
			pass.Reportf(se.Pos(),
				"%s.%s is guarded by mu but written with only %s.mu.RLock held (writes need the full Lock)",
				named.Obj().Name(), se.Sel.Name, lintutil.ExprString(se.X))
			return
		}
		pass.Reportf(se.Pos(),
			"%s.%s is guarded by mu but accessed without %s.mu held (lock first, or name the helper *Locked)",
			named.Obj().Name(), se.Sel.Name, lintutil.ExprString(se.X))
	})
}

// isWrite reports whether the selector is a mutation of the guarded
// field: an assignment target (directly, or through an index, a
// sub-field, or a dereference), an increment/decrement, an address-of
// (the pointer can be written through later), or the map argument of
// delete.
func isWrite(pass *lintutil.Pass, stack []ast.Node, se *ast.SelectorExpr) bool {
	var cur ast.Node = se
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.IndexExpr:
			if p.X != cur {
				return false // the selector is the index, not the target
			}
			cur = p
		case *ast.SelectorExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.StarExpr:
			cur = p
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.IncDecStmt:
			return p.X == cur
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.CallExpr:
			if id, ok := p.Fun.(*ast.Ident); ok && len(p.Args) > 0 && p.Args[0] == cur {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// lockHeld applies the heuristic: the enclosing function locked
// <recv>.mu before this position (for writes only the full Lock
// qualifies; reads also accept RLock), or is a *Locked helper.
func lockHeld(stack []ast.Node, recv string, write bool) bool {
	var fn ast.Node
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn = n // innermost function wins
		}
	}
	if fn == nil {
		return false
	}
	if fd, ok := fn.(*ast.FuncDecl); ok && strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	pos := stack[len(stack)-1].Pos()
	held := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if held {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		fun := lintutil.ExprString(call.Fun)
		if fun == recv+".mu.Lock" || (!write && fun == recv+".mu.RLock") {
			held = true
		}
		return true
	})
	return held
}
