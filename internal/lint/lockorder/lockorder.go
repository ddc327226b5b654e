// Package lockorder builds the whole-program lock-acquisition graph of
// the runtime packages and proves it acyclic. The repo's locking
// discipline (DESIGN.md §8, the lockfield analyzer) checks that guarded
// state is touched under its own mutex, but says nothing about the
// *order* mutexes nest in — and with 70+ acquisition sites across the
// tree, a new `b.mu.Lock()` inside a path that already holds `a.mu`
// silently bets that no other path nests them the other way. That bet
// is exactly a potential deadlock, and it is invisible to -race, to
// review, and to every per-package analyzer.
//
// The analysis is interprocedural over the source-loaded module
// (internal/lint/srcload): each function body yields a sequence of
// acquire/release/call events with the held-set tracked through
// branches; a fixpoint propagates "locks transitively acquired" through
// the static call graph; every acquisition performed while another lock
// is held becomes an edge `held -> acquired` with a witness chain (the
// file:line path that realizes it). A cycle in the resulting graph is
// reported with the acquisition path of every participating edge; an
// acyclic graph is ranked topologically and emitted as ORDER.golden, so
// a future inversion — even one that stops short of a full cycle by
// contradicting the committed order — fails CI with a readable diff and
// is either fixed or deliberately re-ranked via `make lockorder-golden`.
//
// Abstraction and its limits: locks are identified per declaration site
// (package.Type.field for mutex fields, package.var for globals), not
// per instance — two instances of the same struct locked hand-over-hand
// therefore collapse to a self-edge, which is skipped rather than
// reported (instance order is runtime data; the repo's idiom is to
// order such pairs by node ID). Interface-dispatched calls and stored
// closures are not traced through; goroutine bodies are analyzed as
// fresh roots (the spawner's held-set does not order-precede them).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/srcload"
)

// Edge records that To was acquired while From was held, with the
// witness chain that realizes the nesting.
type Edge struct {
	From, To string
	// Pos is where the holder of From acquires To or calls toward it:
	// the first step of Witness.
	Pos token.Pos
	// Witness is the acquisition path: file:line-annotated steps from
	// the function that holds From down to the acquisition of To.
	Witness []string
}

// Cycle is one strongly connected component of the acquisition graph
// with more than one lock: a potential deadlock.
type Cycle struct {
	// Locks are the participating lock identities, sorted.
	Locks []string
	// Edges are the component-internal edges, each carrying its witness.
	Edges []*Edge
}

// Result is the analyzed graph.
type Result struct {
	// Locks lists every lock identity seen (acquired anywhere), sorted.
	Locks []string
	// Edges maps "from\x00to" to the first witness found, deterministic
	// across runs.
	Edges map[string]*Edge
	// Cycles holds the potential deadlocks; empty means the graph is a
	// DAG and Ranked/Golden are meaningful.
	Cycles []Cycle
}

// --- event collection ---

const (
	evAcquire = iota
	evCall
)

type event struct {
	kind   int
	lock   string      // evAcquire
	callee *types.Func // evCall
	held   []string    // snapshot at the event
	pos    token.Pos
}

type funcInfo struct {
	name   string // pkg-qualified, for witnesses
	events []event
}

type collector struct {
	fset  *token.FileSet
	info  *types.Info
	funcs map[*types.Func]*funcInfo
	// roots collects goroutine-literal bodies: analyzed for internal
	// nesting but unreachable through the call graph.
	roots []*funcInfo
	cur   *funcInfo
}

// Analyze builds the acquisition graph over the loaded packages.
func Analyze(fset *token.FileSet, pkgs []*srcload.Package) *Result {
	c := &collector{fset: fset, funcs: map[*types.Func]*funcInfo{}}
	for _, pkg := range pkgs {
		c.info = pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					c.collectFunc(pkg, fd)
				}
			}
		}
	}
	return c.graph()
}

func (c *collector) collectFunc(pkg *srcload.Package, fd *ast.FuncDecl) {
	obj, _ := c.info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	fi := &funcInfo{name: funcName(obj)}
	c.funcs[obj] = fi
	prev := c.cur
	c.cur = fi
	held := []string{}
	c.stmt(fd.Body, &held)
	c.cur = prev
}

// funcName renders pkg.Func or pkg.(Recv).Method.
func funcName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// --- statement walk with held tracking ---

func (c *collector) stmt(s ast.Stmt, held *[]string) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			c.stmt(sub, held)
		}
	case *ast.IfStmt:
		c.stmt(s.Init, held)
		c.expr(s.Cond, held)
		c.branches(held, func(h *[]string) { c.stmt(s.Body, h) },
			func(h *[]string) { c.stmt(s.Else, h) })
	case *ast.ForStmt:
		c.stmt(s.Init, held)
		if s.Cond != nil {
			c.expr(s.Cond, held)
		}
		c.branches(held, func(h *[]string) {
			c.stmt(s.Body, h)
			c.stmt(s.Post, h)
		})
	case *ast.RangeStmt:
		c.expr(s.X, held)
		c.branches(held, func(h *[]string) { c.stmt(s.Body, h) })
	case *ast.SwitchStmt:
		c.stmt(s.Init, held)
		if s.Tag != nil {
			c.expr(s.Tag, held)
		}
		c.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, held)
		c.stmt(s.Assign, held)
		c.clauses(s.Body, held)
	case *ast.SelectStmt:
		c.clauses(s.Body, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end — the
		// conservative model already assumes that. A deferred call to
		// anything else runs with whatever is held at return; model it
		// at the defer site (the held-set there is the common case).
		if _, method, ok := c.mutexMethod(s.Call); ok {
			_ = method // deferred Lock/Unlock: no event; release-at-end is implicit
			return
		}
		c.callEvent(s.Call, held)
	case *ast.GoStmt:
		// Arguments evaluate in the spawner; the body runs concurrently
		// with an empty held-set and is analyzed as a fresh root.
		for _, a := range s.Call.Args {
			c.expr(a, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			root := &funcInfo{name: c.cur.name + ".go-literal"}
			c.roots = append(c.roots, root)
			prev := c.cur
			c.cur = root
			fresh := []string{}
			c.stmt(lit.Body, &fresh)
			c.cur = prev
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	case *ast.ExprStmt:
		c.expr(s.X, held)
	case *ast.SendStmt:
		c.expr(s.Chan, held)
		c.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.expr(r, held)
		}
		for _, l := range s.Lhs {
			c.expr(l, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, held)
		}
	case *ast.IncDecStmt:
		c.expr(s.X, held)
	}
}

// branches runs each branch on a copy of the held-set and merges the
// union back: a lock acquired in any branch is conservatively held
// afterwards.
func (c *collector) branches(held *[]string, bodies ...func(*[]string)) {
	entry := append([]string(nil), *held...)
	after := append([]string(nil), *held...)
	for _, body := range bodies {
		h := append([]string(nil), entry...)
		body(&h)
		for _, l := range h {
			if !contains(after, l) {
				after = append(after, l)
			}
		}
	}
	*held = after
}

func (c *collector) clauses(body *ast.BlockStmt, held *[]string) {
	var fns []func(*[]string)
	for _, cc := range body.List {
		switch cc := cc.(type) {
		case *ast.CaseClause:
			fns = append(fns, func(h *[]string) {
				for _, st := range cc.Body {
					c.stmt(st, h)
				}
			})
		case *ast.CommClause:
			fns = append(fns, func(h *[]string) {
				c.stmt(cc.Comm, h)
				for _, st := range cc.Body {
					c.stmt(st, h)
				}
			})
		}
	}
	c.branches(held, fns...)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// expr walks an expression in evaluation order, updating the held-set
// at mutex calls and recording call events.
func (c *collector) expr(e ast.Expr, held *[]string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method, ok := c.mutexMethod(n); ok {
				lock := c.lockIdent(recv)
				switch method {
				case "Lock", "RLock", "TryLock", "TryRLock":
					c.cur.events = append(c.cur.events, event{
						kind: evAcquire, lock: lock,
						held: append([]string(nil), *held...), pos: n.Pos(),
					})
					*held = append(*held, lock)
				case "Unlock", "RUnlock":
					release(held, lock)
				}
				return false
			}
			// Arguments evaluate before the call transfers control.
			for _, a := range n.Args {
				c.expr(a, held)
			}
			c.expr(n.Fun, held)
			c.callEvent(n, held)
			return false
		case *ast.FuncLit:
			// A literal invoked here (or passed as an immediate
			// callback) runs with the current held-set; walking it
			// inline is the conservative approximation for stored
			// closures too.
			c.stmt(n.Body, held)
			return false
		}
		return true
	})
}

// callEvent records a statically resolvable call to a module function.
func (c *collector) callEvent(call *ast.CallExpr, held *[]string) {
	fn := lintutil.StaticCallee(c.info, call)
	if fn == nil {
		return
	}
	c.cur.events = append(c.cur.events, event{
		kind: evCall, callee: fn,
		held: append([]string(nil), *held...), pos: call.Pos(),
	})
}

// release drops the most recent acquisition of lock.
func release(held *[]string, lock string) {
	h := *held
	for i := len(h) - 1; i >= 0; i-- {
		if h[i] == lock {
			*held = append(h[:i], h[i+1:]...)
			return
		}
	}
}

// mutexMethod matches a call to a sync.Mutex / sync.RWMutex method,
// returning the receiver expression and the method name.
func (c *collector) mutexMethod(call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", false
	}
	selection, ok := c.info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	t := selection.Recv()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return nil, "", false
	}
	if name := n.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// lockIdent names the lock a mutex expression denotes, by declaration
// site: pkg.Type.field for struct fields (through embedding and
// pointers), pkg.var for package-level mutexes, pkg.func-local:name as
// a last resort for locals.
func (c *collector) lockIdent(e ast.Expr) string {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if p, ok := types.Unalias(t).(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + x.Sel.Name
			}
		}
		if v, ok := c.info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name() // pkg-qualified global
		}
		return types.ExprString(x)
	case *ast.Ident:
		if v, ok := c.info.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return v.Pkg().Path() + ".local:" + v.Name()
		}
	}
	return types.ExprString(e)
}

// --- graph construction ---

// chain is a witness path for a transitive acquisition.
type chain []string

const maxChain = 8

// graph runs the transitive-acquisition fixpoint and materializes the
// edge set and its cycles.
func (c *collector) graph() *Result {
	// Deterministic function order for the fixpoint and edge emission.
	fns := make([]*types.Func, 0, len(c.funcs))
	for fn := range c.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := c.funcs[fns[i]], c.funcs[fns[j]]
		if a.name != b.name {
			return a.name < b.name
		}
		return fns[i].Pos() < fns[j].Pos()
	})

	// TA: locks transitively acquired by each function, with a witness.
	ta := map[*types.Func]map[string]chain{}
	for _, fn := range fns {
		ta[fn] = map[string]chain{}
		for _, ev := range c.funcs[fn].events {
			if ev.kind == evAcquire {
				if _, ok := ta[fn][ev.lock]; !ok {
					ta[fn][ev.lock] = chain{c.step(ev.pos, c.funcs[fn].name+" acquires "+ev.lock)}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, ev := range c.funcs[fn].events {
				if ev.kind != evCall {
					continue
				}
				sub, ok := ta[ev.callee]
				if !ok {
					continue // no body loaded (stdlib, interface)
				}
				for _, lock := range sortedKeys(sub) {
					if _, have := ta[fn][lock]; have {
						continue
					}
					w := sub[lock]
					if len(w) >= maxChain {
						w = w[:maxChain]
					}
					step := c.step(ev.pos, c.funcs[fn].name+" calls "+funcName(ev.callee))
					ta[fn][lock] = append(chain{step}, w...)
					changed = true
				}
			}
		}
	}

	res := &Result{Edges: map[string]*Edge{}}
	lockSet := map[string]bool{}
	addEdge := func(from, to string, pos token.Pos, witness []string) {
		if from == to {
			return // same declaration site: instance order, not rank order
		}
		key := from + "\x00" + to
		if _, ok := res.Edges[key]; !ok {
			res.Edges[key] = &Edge{From: from, To: to, Pos: pos, Witness: witness}
		}
	}
	emit := func(fi *funcInfo) {
		for _, ev := range fi.events {
			switch ev.kind {
			case evAcquire:
				lockSet[ev.lock] = true
				for _, h := range ev.held {
					addEdge(h, ev.lock, ev.pos, []string{c.step(ev.pos, fi.name+" acquires "+ev.lock+" while holding "+h)})
				}
			case evCall:
				if len(ev.held) == 0 {
					continue
				}
				sub, ok := ta[ev.callee]
				if !ok {
					continue
				}
				for _, lock := range sortedKeys(sub) {
					for _, h := range ev.held {
						w := append([]string{c.step(ev.pos, fi.name+" calls "+funcName(ev.callee)+" while holding "+h)}, sub[lock]...)
						addEdge(h, lock, ev.pos, w)
					}
				}
			}
		}
	}
	for _, fn := range fns {
		emit(c.funcs[fn])
	}
	for _, root := range c.roots {
		emit(root)
	}

	for k := range lockSet {
		res.Locks = append(res.Locks, k)
	}
	sort.Strings(res.Locks)
	res.findCycles()
	return res
}

func (c *collector) step(pos token.Pos, what string) string {
	p := c.fset.Position(pos)
	file := p.Filename
	// Keep witnesses repo-relative and stable across checkouts.
	if i := strings.Index(file, "internal/"); i > 0 {
		file = file[i:]
	}
	return fmt.Sprintf("%s:%d: %s", file, p.Line, what)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- cycles and ranking ---

// findCycles runs Tarjan's SCC algorithm; components with more than one
// lock are potential deadlocks.
func (r *Result) findCycles() {
	adj := map[string][]string{}
	for _, e := range r.edgeList() {
		adj[e.From] = append(adj[e.From], e.To)
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, v := range r.Locks {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	for _, comp := range sccs {
		sort.Strings(comp)
		in := map[string]bool{}
		for _, v := range comp {
			in[v] = true
		}
		cyc := Cycle{Locks: comp}
		for _, e := range r.edgeList() {
			if in[e.From] && in[e.To] {
				cyc.Edges = append(cyc.Edges, e)
			}
		}
		r.Cycles = append(r.Cycles, cyc)
	}
	sort.Slice(r.Cycles, func(i, j int) bool {
		return strings.Join(r.Cycles[i].Locks, ",") < strings.Join(r.Cycles[j].Locks, ",")
	})
}

// edgeList returns the edges sorted by (From, To).
func (r *Result) edgeList() []*Edge {
	out := make([]*Edge, 0, len(r.Edges))
	for _, k := range sortedKeys(r.Edges) {
		out = append(out, r.Edges[k])
	}
	return out
}

// Ranked returns the locks in a deterministic topological order of the
// acquisition graph (valid only when Cycles is empty): a lock may only
// be acquired while holding locks that rank strictly above it.
func (r *Result) Ranked() []string {
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, l := range r.Locks {
		indeg[l] = 0
	}
	for _, e := range r.edgeList() {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	var order []string
	for len(indeg) > 0 {
		// Deterministic Kahn: lexicographically smallest zero-indegree.
		pick := ""
		for _, l := range r.Locks {
			if d, ok := indeg[l]; ok && d == 0 && (pick == "" || l < pick) {
				pick = l
			}
		}
		if pick == "" {
			// Cycle remnant; append the rest sorted so output stays total.
			rest := sortedKeys(indeg)
			order = append(order, rest...)
			break
		}
		delete(indeg, pick)
		order = append(order, pick)
		for _, w := range adj[pick] {
			if _, ok := indeg[w]; ok {
				indeg[w]--
			}
		}
	}
	return order
}

// CycleReport renders the potential deadlocks with both (all)
// acquisition paths of every participating edge.
func (r *Result) CycleReport() string {
	var b strings.Builder
	for i, cyc := range r.Cycles {
		fmt.Fprintf(&b, "potential deadlock %d: lock-order cycle between %s\n", i+1, strings.Join(cyc.Locks, " <-> "))
		for _, e := range cyc.Edges {
			fmt.Fprintf(&b, "  %s -> %s via:\n", e.From, e.To)
			for _, w := range e.Witness {
				fmt.Fprintf(&b, "    %s\n", w)
			}
		}
	}
	return b.String()
}

// Golden renders the committed artifact: the edge set and the ranked
// order. Any change — a new nesting, a removed one, a rank shift — must
// be reviewed and regenerated deliberately.
func (r *Result) Golden() string {
	var b strings.Builder
	b.WriteString("# Whole-program lock acquisition order (internal/...).\n")
	b.WriteString("# Generated by `make lockorder-golden` (p2plint -lockorder -write).\n")
	b.WriteString("# An edge A -> B means B is acquired while A is held somewhere in the\n")
	b.WriteString("# tree; the order section is a topological ranking — acquiring a lock\n")
	b.WriteString("# while holding one ranked BELOW it is an inversion and fails CI.\n")
	b.WriteString("edges:\n")
	for _, e := range r.edgeList() {
		fmt.Fprintf(&b, "  %s -> %s\n    (%s)\n", e.From, e.To, e.Witness[0])
	}
	b.WriteString("order:\n")
	for i, l := range r.Ranked() {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, l)
	}
	return b.String()
}

// Diff returns a line diff between want and got ("" when equal) — the
// readable failure CI prints when the committed order is stale.
func Diff(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			if w != "" {
				fmt.Fprintf(&b, "-%s\n", w)
			}
			if g != "" {
				fmt.Fprintf(&b, "+%s\n", g)
			}
		}
	}
	return b.String()
}

// Scope is the default package filter: the runtime tree, excluding the
// analyzers themselves (they hold no runtime locks).
func Scope(rel string) bool {
	return strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "internal/lint")
}
