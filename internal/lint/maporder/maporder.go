// Package maporder defines the analyzer that closes the single largest
// remaining nondeterminism hazard in the deterministic packages: Go map
// iteration order. A `range` over a map visits keys in a
// runtime-randomized order; if that order can influence anything that
// escapes the loop — an appended slice, a sent message, a "last writer
// wins" assignment — two runs with equal seeds diverge, and the
// byte-identical-trace contract (DESIGN.md §4, TestTraceDeterminism)
// breaks in a way no fixed-seed test reliably catches.
//
// The analyzer performs a conservative order-insensitivity proof on each
// loop body: the loop is accepted only when every statement flows into a
// provably commutative sink. The value-flow lattice is intentionally
// small (this is the subset of an SSA effects analysis the proof
// actually needs — the full golang.org/x/tools/go/ssa builder cannot be
// vendored into this module's offline build, so the classifier works on
// the type-checked AST with an explicit assigned-variables analysis
// standing in for SSA def-use chains):
//
//   - commutative accumulation: x++, x--, and x += / -= / *= / |= / &=
//     / ^= / &^= on numeric lvalues, provided the right-hand side does
//     not read any variable the loop itself writes (sum += count is
//     order-sensitive when count is also accumulated);
//   - set/map writes keyed by the iteration key: m[k] = v and
//     delete(m, k) where k is the range key variable — each iteration
//     touches a distinct key, so insertion order cannot matter;
//   - per-iteration locals: variables declared inside the body may be
//     assigned freely;
//   - membership tests and branches whose conditions are pure
//     (no calls beyond len/cap/min/max and conversions);
//   - nested loops over non-map collections whose bodies satisfy the
//     same rules.
//
// Anything else — append to an outer slice, plain assignment to an
// outer variable, a function call, a channel operation, return — is
// reported, because the iteration order can escape through it. The
// remedy is to iterate a sorted key slice (core.sortedMapKeys), or a
// table kept in key order, or, where the loop is commutative for a reason the
// classifier cannot see, to justify it in place:
//
//	//lint:maporder commutative — <why the order provably cannot escape>
//
// The justification is mandatory prose, and a justification on a loop
// the classifier already proves safe is itself reported as unused, so
// escapes stay auditable and minimal.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/lintutil"
)

const doc = `prove map-range loops order-insensitive in determinism-critical packages

Packages listed in -critical (path suffixes) must stay byte-reproducible:
a range over a map is reported unless the loop body provably flows only
into order-insensitive sinks (commutative accumulation, set membership,
writes keyed by the iteration key) or carries an explicit
//lint:maporder commutative — <reason> justification.`

const name = "maporder"

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// critical lists the determinism-critical package-path suffixes — the
// marker set shared with clockcheck, plus the replay plane whose
// divergence reports must themselves be reproducible.
var critical = "internal/core,internal/sim,internal/graph,internal/sched,internal/netsim,internal/replay,internal/scenario,internal/dht"

func init() {
	Analyzer.Flags.StringVar(&critical, "critical", critical,
		"comma-separated package path suffixes that must stay byte-reproducible")
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgMatch(pass.Pkg.Path(), strings.Split(critical, ",")) {
		return nil, nil
	}
	sup := lintutil.NewSuppressor(pass, name)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rng := n.(*ast.RangeStmt)
		if !isMapRange(pass, rng) || lintutil.InTestFile(pass, rng.Pos()) {
			return
		}
		c := newChecker(pass, rng)
		bad, why := c.bodyOK(rng.Body)
		if bad == nil {
			return // proven order-insensitive; an unused justification here is flagged by sup.Finish
		}
		if _, ok := sup.Justified(rng.Pos(), "commutative"); ok {
			return
		}
		if sup.Suppressed(rng.Pos()) {
			return
		}
		pass.Reportf(rng.Pos(),
			"range over map %s: iteration order can escape (%s at %s); iterate a sorted key slice, or justify with //lint:maporder commutative — <reason>",
			types.ExprString(rng.X), why, pass.Fset.Position(bad.Pos()))
	})
	sup.Finish()
	return nil, nil
}

// isMapRange reports whether the range expression has map type.
func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := types.Unalias(tv.Type).Underlying().(*types.Map)
	return isMap
}

// checker carries the per-loop proof state.
type checker struct {
	pass *analysis.Pass
	rng  *ast.RangeStmt
	// keyVar/valVar are the iteration variables (per-iteration since
	// go1.22); nil when anonymous.
	keyVar, valVar types.Object
	// mutated holds the textual paths of non-loop-local storage the body
	// writes ("total", "st.summaries"). A pure expression may not read
	// any of them: such a read observes a partial fold, whose value
	// depends on iteration order. Paths stand in for SSA def-use chains;
	// they are conservative under aliasing because address-of is
	// rejected outright by pure().
	mutated map[string]bool
}

func newChecker(pass *analysis.Pass, rng *ast.RangeStmt) *checker {
	c := &checker{pass: pass, rng: rng, mutated: map[string]bool{}}
	c.keyVar = c.loopVar(rng.Key)
	c.valVar = c.loopVar(rng.Value)
	c.collectMutated(rng.Body)
	return c
}

func (c *checker) loopVar(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// obj resolves an identifier to its object.
func (c *checker) obj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := c.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Defs[id]
}

// loopLocal reports whether the object is declared inside the loop body
// (or is an iteration variable) — writes to it are per-iteration state.
func (c *checker) loopLocal(o types.Object) bool {
	if o == nil {
		return false
	}
	if o == c.keyVar || o == c.valVar {
		return true
	}
	return o.Pos() >= c.rng.Body.Pos() && o.Pos() <= c.rng.Body.End()
}

// collectMutated records the path of every piece of outer storage the
// body writes. An indexed write mutates its container, so m[k] = v
// records m's path; per-iteration locals are exempt (their state cannot
// carry order across iterations).
func (c *checker) collectMutated(body *ast.BlockStmt) {
	note := func(e ast.Expr) {
		if c.loopLocal(c.obj(rootExpr(e))) {
			return
		}
		if p := writePath(e); p != "" && p != "_" {
			c.mutated[p] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				note(l)
			}
		case *ast.IncDecStmt:
			note(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				note(n.X)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				note(n.Args[0])
			}
		}
		return true
	})
}

// writePath names the storage an lvalue writes: the container path for
// indexed writes (m[k] -> m), the full selector chain otherwise.
func writePath(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X // writing an element mutates the container
		default:
			return types.ExprString(e)
		}
	}
}

// rootExpr peels selectors/indexes/parens/stars down to the base
// identifier: the variable whose storage the expression reaches.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// commutativeOps are the op-assignments whose repeated application
// commutes: the final value is the initial value folded with the
// multiset of operands, independent of order. (Float rounding makes +=
// technically order-dependent in the last ulp; like the paper's
// utilization averages, the repo treats float accumulation as
// commutative — the alternative is sorting every metrics fold.)
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN:     true, // +=
	token.SUB_ASSIGN:     true, // -=  (x0 - Σv: order-free)
	token.MUL_ASSIGN:     true, // *=
	token.OR_ASSIGN:      true, // |=
	token.AND_ASSIGN:     true, // &=
	token.XOR_ASSIGN:     true, // ^=
	token.AND_NOT_ASSIGN: true, // &^= (x0 &^ (v1|v2|...): order-free)
}

// bodyOK proves a statement list order-insensitive; on failure it
// returns the offending node and a short reason.
func (c *checker) bodyOK(body *ast.BlockStmt) (ast.Node, string) {
	for _, s := range body.List {
		if bad, why := c.stmtOK(s); bad != nil {
			return bad, why
		}
	}
	return nil, ""
}

func (c *checker) stmtOK(s ast.Stmt) (ast.Node, string) {
	switch s := s.(type) {
	case *ast.EmptyStmt:
		return nil, ""
	case *ast.BranchStmt:
		if (s.Tok == token.CONTINUE || s.Tok == token.BREAK) && s.Label == nil {
			return nil, ""
		}
		return s, "branch leaves the loop in an order-dependent way"
	case *ast.BlockStmt:
		return c.bodyOK(s)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok == token.IMPORT {
			return s, "declaration"
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if bad, why := c.pure(v); bad != nil {
						return bad, why
					}
				}
			}
		}
		return nil, ""
	case *ast.IncDecStmt:
		return c.accumLHS(s.X)
	case *ast.AssignStmt:
		return c.assignOK(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && c.isDelete(call) {
			return nil, ""
		}
		return s, "statement with side effects (call/send)"
	case *ast.IfStmt:
		if s.Init != nil {
			if bad, why := c.stmtOK(s.Init); bad != nil {
				return bad, why
			}
		}
		if bad, why := c.pure(s.Cond); bad != nil {
			return bad, why
		}
		if bad, why := c.bodyOK(s.Body); bad != nil {
			return bad, why
		}
		if s.Else != nil {
			return c.stmtOK(s.Else)
		}
		return nil, ""
	case *ast.ForStmt:
		for _, sub := range []ast.Stmt{s.Init, s.Post} {
			if sub != nil {
				if bad, why := c.stmtOK(sub); bad != nil {
					return bad, why
				}
			}
		}
		if s.Cond != nil {
			if bad, why := c.pure(s.Cond); bad != nil {
				return bad, why
			}
		}
		return c.bodyOK(s.Body)
	case *ast.RangeStmt:
		if bad, why := c.pure(s.X); bad != nil {
			return bad, why
		}
		return c.bodyOK(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			if bad, why := c.stmtOK(s.Init); bad != nil {
				return bad, why
			}
		}
		if s.Tag != nil {
			if bad, why := c.pure(s.Tag); bad != nil {
				return bad, why
			}
		}
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CaseClause)
			for _, e := range cl.List {
				if bad, why := c.pure(e); bad != nil {
					return bad, why
				}
			}
			for _, st := range cl.Body {
				if bad, why := c.stmtOK(st); bad != nil {
					return bad, why
				}
			}
		}
		return nil, ""
	default:
		return s, fmt.Sprintf("%T escapes the commutative-sink lattice", s)
	}
}

// assignOK classifies an assignment.
func (c *checker) assignOK(s *ast.AssignStmt) (ast.Node, string) {
	// Definitions create per-iteration locals; only the RHS must be pure.
	if s.Tok == token.DEFINE {
		for _, r := range s.Rhs {
			if bad, why := c.pure(r); bad != nil {
				return bad, why
			}
		}
		return nil, ""
	}
	// Commutative op-assignment on a numeric lvalue.
	if commutativeOps[s.Tok] {
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return s, "multi-assign accumulation"
		}
		if bad, why := c.accumLHS(s.Lhs[0]); bad != nil {
			return bad, why
		}
		if bad, why := c.pure(s.Rhs[0]); bad != nil {
			return bad, why
		}
		return nil, ""
	}
	if s.Tok != token.ASSIGN {
		return s, fmt.Sprintf("%s accumulation is not commutative", s.Tok)
	}
	// Plain assignment: per-iteration locals are free; outer map writes
	// keyed by the iteration key are per-key and therefore order-free.
	for i, l := range s.Lhs {
		var r ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			r = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			r = s.Rhs[0]
		}
		if bad, why := c.plainTargetOK(l); bad != nil {
			return bad, why
		}
		if r != nil {
			if bad, why := c.pure(r); bad != nil {
				return bad, why
			}
		}
	}
	return nil, ""
}

// plainTargetOK accepts `local = ...`, `_ = ...` and `m[key] = ...`.
func (c *checker) plainTargetOK(l ast.Expr) (ast.Node, string) {
	if id, ok := l.(*ast.Ident); ok {
		if id.Name == "_" || c.loopLocal(c.obj(id)) {
			return nil, ""
		}
		return l, fmt.Sprintf("plain assignment to outer %s is last-writer-wins", id.Name)
	}
	if ix, ok := l.(*ast.IndexExpr); ok {
		if tv, hasT := c.pass.TypesInfo.Types[ix.X]; hasT {
			_, isMap := types.Unalias(tv.Type).Underlying().(*types.Map)
			if isMap && c.isRangeKey(ix.Index) {
				// Each iteration writes a distinct key, so the writes
				// commute; the container expression itself only needs to
				// be escape-free (it is the write target, so reading it
				// is not a partial-fold observation).
				return c.noEscapes(ix.X)
			}
		}
		return l, "indexed write not keyed by the iteration key"
	}
	if root := c.obj(rootExpr(l)); c.loopLocal(root) && root != c.keyVar && root != c.valVar {
		return nil, "" // field/element of a per-iteration local
	}
	return l, "write to outer storage"
}

// accumLHS accepts a numeric lvalue as a commutative accumulation
// target. Its base is checked for escapes only (the target itself is
// being written; reading its path is not an observation), while any
// index expression is held to full purity — an index that reads fold
// state selects a bucket order-dependently.
func (c *checker) accumLHS(l ast.Expr) (ast.Node, string) {
	tv, ok := c.pass.TypesInfo.Types[l]
	if !ok {
		return l, "untyped accumulation target"
	}
	b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsNumeric == 0 {
		return l, fmt.Sprintf("accumulation into non-numeric %s is order-sensitive", tv.Type)
	}
	switch x := l.(type) {
	case *ast.Ident:
		return nil, ""
	case *ast.SelectorExpr:
		return c.noEscapes(x.X)
	case *ast.IndexExpr:
		if bad, why := c.noEscapes(x.X); bad != nil {
			return bad, why
		}
		return c.pure(x.Index)
	case *ast.StarExpr:
		return c.noEscapes(x.X)
	}
	return l, "unsupported accumulation target"
}

// isRangeKey reports whether e is the iteration key variable, possibly
// through a conversion or parens.
func (c *checker) isRangeKey(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			// conversion T(k)
			if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return false
		case *ast.Ident:
			return c.keyVar != nil && c.obj(x) == c.keyVar
		default:
			return false
		}
	}
}

// isDelete matches delete(m, key) with the iteration key.
func (c *checker) isDelete(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" || len(call.Args) != 2 {
		return false
	}
	if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	// The deleted-from map is a write target: escape-free suffices.
	if bad, _ := c.noEscapes(call.Args[0]); bad != nil {
		return false
	}
	return c.isRangeKey(call.Args[1])
}

// pureBuiltins may appear in pure expressions: they observe length or
// pick extrema, with no side effects and no order sensitivity.
var pureBuiltins = map[string]bool{"len": true, "cap": true, "min": true, "max": true}

// readsMutated reports whether path P observes storage the loop writes:
// P is a written path, lies inside one (st.summaries[d] when
// st.summaries is written), or contains one as its container.
func (c *checker) readsMutated(p string) bool {
	for a := range c.mutated {
		if p == a || strings.HasPrefix(p, a+".") || strings.HasPrefix(p, a+"[") {
			return true
		}
	}
	return false
}

// noEscapes rejects the order-publishing expression forms — calls
// (beyond conversions and whitelisted builtins), function literals,
// channel receives, address-of — without the partial-fold read check.
// It is the right bar for write-target bases.
func (c *checker) noEscapes(e ast.Expr) (bad ast.Node, why string) {
	return c.scan(e, false)
}

// pure additionally rejects reads of storage the loop itself mutates
// (partial-fold observation).
func (c *checker) pure(e ast.Expr) (bad ast.Node, why string) {
	return c.scan(e, true)
}

func (c *checker) scan(e ast.Expr, checkReads bool) (bad ast.Node, why string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && pureBuiltins[b.Name()] {
					return true
				}
			}
			bad, why = x, "call may observe or publish iteration order"
		case *ast.FuncLit:
			bad, why = x, "function literal captures loop state"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				bad, why = x, "channel receive"
			}
			if x.Op == token.AND {
				bad, why = x, "address-of lets iteration state escape"
			}
		case *ast.Ident:
			if checkReads && c.readsMutated(x.Name) {
				bad, why = x, fmt.Sprintf("reads %s, which the loop also writes (partial-fold observation)", x.Name)
			}
		case *ast.SelectorExpr:
			if checkReads && c.readsMutated(types.ExprString(x)) {
				bad, why = x, fmt.Sprintf("reads %s, which the loop also writes (partial-fold observation)", types.ExprString(x))
			}
		}
		return bad == nil
	})
	return bad, why
}
