// Package clockcheck defines an analyzer enforcing the repo's
// determinism contract: packages that run under the discrete-event
// simulation must take time from the injected env.Clock and randomness
// from the injected per-node rng stream, never from the process
// environment. A time.Now() on a sim-reachable path silently breaks
// bit-reproducibility of runs (ROADMAP: "runs with equal seeds and
// schedules are bit-identical") in a way -race and code review do not
// catch.
package clockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/lintutil"
)

const doc = `forbid wall-clock and global randomness in deterministic packages

The deterministic packages (path suffixes) form the simulated
core: all time must come from the injected clock (env.Clock / sim
engine) and all randomness from the injected rng stream. Calls to
time.Now, time.Since, time.Sleep, timer constructors, and package-level
math/rand functions are reported. Suppress a deliberate crossing with
//lint:ignore clockcheck — <reason>.`

// Analyzer is the clockcheck pass.
var Analyzer = &lintutil.Analyzer{Name: "clockcheck", Doc: doc, Run: run}

// deterministic lists the package-path suffixes the analyzer applies to.
var deterministic = []string{
	"internal/core", "internal/sim", "internal/sched", "internal/graph",
	"internal/experiments", "internal/scenario", "internal/dht",
}

// forbiddenTime are the time package functions that read or wait on the
// wall clock. Conversions and constructors like time.Duration or
// time.Unix are fine: they do not observe the environment.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func run(pass *lintutil.Pass) {
	if !lintutil.PkgMatch(pass.Pkg.Path(), deterministic) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
	}
}

// checkCall reports a call that reads the wall clock, waits on it, or
// draws from the global random source.
func checkCall(pass *lintutil.Pass, call *ast.CallExpr) {
	fn := lintutil.StaticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods are fine; only package-level funcs observe globals
	}
	var what string
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			what = "wall clock (use the injected env.Clock)"
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, ...) build an explicitly
		// seeded stream; only the package-level funcs that draw
		// from the hidden global source are nondeterministic.
		if !strings.HasPrefix(fn.Name(), "New") {
			what = "global randomness (use the injected rng stream)"
		}
	}
	if what != "" {
		pass.Reportf(call.Pos(), "%s.%s reads %s in deterministic package %s",
			fn.Pkg().Name(), fn.Name(), what, pass.Pkg.Path())
	}
}
