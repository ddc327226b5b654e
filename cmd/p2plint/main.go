// Command p2plint is the project's static-analysis gate. One run loads
// the module from source once (internal/lint/srcload), runs the six
// repo-specific analyzers (clockcheck, eventguard, lockfield, maporder,
// metriclabel, replaysafe) over every package and the whole-program
// lock-order check (internal/lint/lockorder) over the runtime tree, and
// prints each finding as
//
//	file:line:col: analyzer: message
//
// Exit status 0 when clean, 1 on findings, 2 when the module does not
// load. `make lint` (and therefore CI) runs `p2plint`. The flags:
//
//	p2plint [-json] [root]
//
// -json prints the same findings as a sorted JSON array (one object
// per finding with file/line/col/analyzer/message) for CI artifacts and
// tooling. A lock-order cycle is reported at each of its edges with
// that edge's acquisition path; a lock order that no longer matches the
// committed internal/lint/lockorder/ORDER.golden is reported on the
// golden with the changed lines.
//
//	p2plint -lockorder [-write] [root]
//
// reports only the lock-order findings; with -write it regenerates the
// golden instead, after a reviewed change (`make lockorder-golden`).
//
// Each analyzer documents its invariant; a deliberate exception is
// suppressed in place with //lint:ignore <analyzer> — <reason>. A
// directive naming no analyzer (a misspelt name) is itself a finding. See
// internal/lint and the "Static analysis" section of README.md.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint/clockcheck"
	"repro/internal/lint/eventguard"
	"repro/internal/lint/lintutil"
	"repro/internal/lint/lockfield"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/maporder"
	"repro/internal/lint/metriclabel"
	"repro/internal/lint/replaysafe"
	"repro/internal/lint/srcload"
)

var analyzers = []*lintutil.Analyzer{
	clockcheck.Analyzer,
	eventguard.Analyzer,
	lockfield.Analyzer,
	maporder.Analyzer,
	metriclabel.Analyzer,
	replaysafe.Analyzer,
}

// module is the path the tree's packages are addressed under.
const module = "repro"

// goldenRel locates the committed lock order inside the module.
const goldenRel = "internal/lint/lockorder/ORDER.golden"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p2plint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print the findings as a sorted JSON array")
	lockOnly := fs.Bool("lockorder", false, "report only the lock-order findings")
	write := fs.Bool("write", false, "with -lockorder: regenerate ORDER.golden instead of checking it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *write && !*lockOnly {
		fmt.Fprintln(stderr, "p2plint: -write needs -lockorder")
		return 2
	}
	root := "."
	if fs.NArg() > 0 {
		root = fs.Arg(0)
	}
	fset := token.NewFileSet()
	pkgs, err := srcload.Load(&srcload.Config{Fset: fset, Root: root, Module: module})
	if err != nil {
		fmt.Fprintf(stderr, "p2plint: %v\n", err)
		return 2
	}
	var scoped []*srcload.Package
	for _, p := range pkgs {
		if lockorder.Scope(strings.TrimPrefix(p.Path, module+"/")) {
			scoped = append(scoped, p)
		}
	}
	res := lockorder.Analyze(fset, scoped)
	golden := filepath.Join(root, filepath.FromSlash(goldenRel))
	if *write {
		return writeGolden(res, golden, stdout, stderr)
	}

	var findings []lintutil.Finding
	if !*lockOnly {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		for _, pkg := range pkgs {
			for _, a := range analyzers {
				lintutil.Run(a, fset, pkg, func(pos token.Pos, msg string) {
					findings = append(findings, lintutil.NewFinding(fset, a.Name, pos, msg))
				})
			}
			lintutil.ReportUnknown(fset, pkg.Files, names, func(pos token.Pos, msg string) {
				findings = append(findings, lintutil.NewFinding(fset, "p2plint", pos, msg))
			})
		}
	}
	findings = append(findings, lockorderFindings(fset, res, golden)...)
	if abs, err := filepath.Abs(root); err == nil {
		lintutil.TrimRoot(findings, abs)
	}
	lintutil.TrimRoot(findings, root)
	if *asJSON {
		if err := lintutil.WriteFindings(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "p2plint: %v\n", err)
			return 2
		}
	} else {
		lintutil.SortFindings(findings)
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// writeGolden regenerates ORDER.golden, refusing while the graph has a
// cycle (a cyclic graph has no ranking).
func writeGolden(res *lockorder.Result, golden string, stdout, stderr io.Writer) int {
	if len(res.Cycles) > 0 {
		fmt.Fprint(stderr, res.CycleReport())
		return 1
	}
	if err := os.WriteFile(golden, []byte(res.Golden()), 0o644); err != nil {
		fmt.Fprintf(stderr, "p2plint -lockorder: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s (%d locks, %d edges)\n", golden, len(res.Locks), len(res.Edges))
	return 0
}

// lockorderFindings folds the lock-order check into the findings: each
// cycle edge is a finding, with its acquisition path, where its holder
// acquires or calls toward the other lock; a stale ORDER.golden is a
// finding on the golden itself, listing the changed lines.
func lockorderFindings(fset *token.FileSet, res *lockorder.Result, golden string) []lintutil.Finding {
	var out []lintutil.Finding
	for _, cyc := range res.Cycles {
		for _, e := range cyc.Edges {
			out = append(out, lintutil.NewFinding(fset, "lockorder", e.Pos, fmt.Sprintf(
				"lock-order cycle: %s acquired while %s held, and the reverse elsewhere; path: %s",
				e.To, e.From, strings.Join(e.Witness, " -> "))))
		}
	}
	if len(out) > 0 {
		return out
	}
	fail := func(msg string) []lintutil.Finding {
		return []lintutil.Finding{{File: golden, Line: 1, Col: 1, Analyzer: "lockorder", Message: msg}}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		return fail(fmt.Sprintf("reading golden: %v (regenerate with `make lockorder-golden`)", err))
	}
	if diff := lockorder.Diff(string(want), res.Golden()); diff != "" {
		return fail("lock acquisition order changed; review and run `make lockorder-golden`: " +
			strings.Join(strings.Split(strings.TrimSuffix(diff, "\n"), "\n"), "; "))
	}
	return nil
}
