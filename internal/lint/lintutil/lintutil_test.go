package lintutil_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/lintutil"
)

// toycheck reports every call to a function literally named "flagme",
// honoring the lintutil suppression plane. It exists to test the plane,
// not the finding.
var toycheck = &lintutil.Analyzer{
	Name: "toycheck",
	Doc:  "test analyzer for the //lint:ignore suppression plane",
	Run: func(pass *lintutil.Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagme" {
					pass.Reportf(call.Pos(), "call to flagme")
				}
				return true
			})
		}
	},
}

func TestSuppressionPlane(t *testing.T) {
	linttest.Run(t, toycheck, linttest.Target{
		Dir:  "testdata/src/suppkg",
		Path: "p2plint.example/suppkg",
	})
}

func TestWriteFindings(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("/repo/internal/core/gossip.go", -1, 1000)
	f.SetLinesForContent(bytes.Repeat([]byte("x\n"), 500))
	pos := func(line, col int) token.Pos { return f.LineStart(line) + token.Pos(col-1) }

	findings := []lintutil.Finding{
		lintutil.NewFinding(fset, "maporder", pos(42, 2), "range over map st.summaries: iteration order can escape (append at /repo/internal/core/gossip.go:43:3)"),
		lintutil.NewFinding(fset, "clockcheck", pos(7, 1), "time.Now in deterministic package"),
	}
	lintutil.TrimRoot(findings, "/repo")

	var buf bytes.Buffer
	if err := lintutil.WriteFindings(&buf, findings); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `[
  {
    "file": "internal/core/gossip.go",
    "line": 7,
    "col": 1,
    "analyzer": "clockcheck",
    "message": "time.Now in deterministic package"
  },
  {
    "file": "internal/core/gossip.go",
    "line": 42,
    "col": 2,
    "analyzer": "maporder",
    "message": "range over map st.summaries: iteration order can escape (append at internal/core/gossip.go:43:3)"
  }
]
`
	if got != want {
		t.Errorf("findings JSON mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteFindingsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lintutil.WriteFindings(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty findings must encode as [], got %q", buf.String())
	}
}

// TestStaticCallee pins the callee resolution clockcheck and replaysafe
// rely on: explicit and inferred generic instantiations resolve to the
// generic declaration; interface-method calls, builtins, conversions and
// function values resolve to nil.
func TestStaticCallee(t *testing.T) {
	const src = `package p

type I interface{ M() }
type T struct{ f func() }

func (T) M()              {}
func G[X any](x X)        {}
func H[X, Y any]()        {}
func plain()              {}

func calls(i I, t T, fv func(), fs []func()) {
	plain()
	G(1)
	G[int](1)
	(G[string])("s")
	H[int, bool]()
	t.M()
	T.M(t)
	i.M()
	t.f()
	fv()
	fs[0]()
	_ = len(fs)
	_ = int64(1)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	want := []string{"plain", "G", "G", "G", "H", "M", "M", "", "", "", "", "", ""}
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			name := ""
			if fn := lintutil.StaticCallee(info, call); fn != nil {
				name = fn.Name()
			}
			got = append(got, name)
		}
		return true
	})
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("callees = %q, want %q", got, want)
	}
}
