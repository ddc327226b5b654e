// Package replaysafe defines an analyzer guarding the flight
// recorder's replay contract. Functions on the live runtime's recorded
// delivery paths are tagged with a "replay:recorded" doc-comment
// marker; inside them, all time must come from the latched node clock
// (env.Clock.Now) or the injectable live.Nanotime accessor, never from
// the wall clock directly. A stray time.Now() on such a path produces
// values the recorder does not log, so a replayed run silently
// diverges from the live one — the divergence detector can report the
// mismatch but not explain it, and -race and code review do not catch
// the read.
package replaysafe

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/lintutil"
)

const doc = `forbid direct wall-clock reads on recorded delivery paths

The recorded packages (path suffixes) host the flight recorder's
hook points. Functions whose doc comment carries the replay:recorded
marker form the recorded delivery paths: every value they observe must
be reproducible from the log, so time.Now / time.Since / time.Until are
reported there — read the latched node clock or live.Nanotime instead.
Timer constructors (time.AfterFunc) stay legal: the recorder logs each
firing, not the arming. Suppress a deliberate crossing with
//lint:ignore replaysafe — <reason>.`

// marker tags a function as being on a recorded delivery path. The
// live runtime carries it in the doc comments of loop, Send, After,
// Inject, deliverLocal and friends.
const marker = "replay:recorded"

// Analyzer is the replaysafe pass.
var Analyzer = &lintutil.Analyzer{Name: "replaysafe", Doc: doc, Run: run}

// recorded lists the package-path suffixes the analyzer applies to.
var recorded = []string{"internal/live", "internal/dht"}

// clockReads are the time package functions that observe the wall
// clock and hand the caller a value. Sleeping or arming a timer does
// not put an unrecorded value in front of protocol logic, so Sleep and
// the constructors are left to clockcheck's jurisdiction.
var clockReads = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

func run(pass *lintutil.Pass) {
	if !lintutil.PkgMatch(pass.Pkg.Path(), recorded) {
		return
	}
	lintutil.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fd := enclosingMarked(stack)
		if fd == nil {
			return
		}
		fn := lintutil.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return // methods like Time.Sub compute; they do not observe
		}
		if clockReads[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s on recorded delivery path %s; read the latched node clock or live.Nanotime so replay sees the same value",
				fn.Name(), fd.Name.Name)
		}
	})
}

// enclosingMarked returns the innermost FuncDecl on the stack when its
// doc comment carries the replay:recorded marker, nil otherwise.
// Closures inherit the marking of the declaration they live in: work a
// marked function pushes into a function literal is still on the
// recorded path.
func enclosingMarked(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Doc != nil && strings.Contains(fd.Doc.Text(), marker) {
			return fd
		}
		return nil
	}
	return nil
}
