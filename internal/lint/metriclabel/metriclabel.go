// Package metriclabel defines an analyzer that keeps the PR-1 metrics
// registry's cardinality bounded at compile time:
//
//   - the name (and help) arguments of Registry.Counter / Gauge /
//     Histogram must be compile-time string constants, so the set of
//     metric families is fixed by the source, and names must match the
//     Prometheus naming charset;
//   - every metrics.Labels composite literal must use compile-time
//     constant keys drawn from the bounded, registry-wide label set
//     (labelKeys), so a scrape can never discover an unbounded or
//     misspelled label dimension.
//
// Label values stay free: they are runtime data (domain and peer IDs).
// Suppress a deliberate exception (e.g. a funnel helper whose callers
// all pass constants) with //lint:ignore metriclabel — <reason>.
package metriclabel

import (
	"go/ast"
	"go/constant"
	"regexp"
	"slices"
	"strings"

	"repro/internal/lint/lintutil"
)

const doc = `require constant metric names and a bounded label-key set at registry call sites

See package documentation. Suppress with //lint:ignore metriclabel — <reason>.`

// Analyzer is the metriclabel pass.
var Analyzer = &lintutil.Analyzer{Name: "metriclabel", Doc: doc, Run: run}

// labelKeys is the registry-wide bounded set of permitted label keys.
// "reason" labels the live transport's drop-reason counters.
var labelKeys = []string{"domain", "peer", "node", "result", "reason"}

// nameRe is the Prometheus metric-name charset.
var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// registryMethods maps the instrument constructors to the index of
// their name argument (help is always name+1).
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func run(pass *lintutil.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRegistryCall(pass, n)
			case *ast.CompositeLit:
				checkLabelsLiteral(pass, n)
			}
			return true
		})
	}
}

// checkRegistryCall enforces constant name/help arguments on the
// instrument constructors.
func checkRegistryCall(pass *lintutil.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !tv.IsValue() || !lintutil.IsNamed(tv.Type, "internal/metrics", "Registry") {
		return
	}
	for i, what := range []string{"name", "help"} {
		arg := call.Args[i]
		av := pass.TypesInfo.Types[arg]
		if av.Value == nil {
			pass.Reportf(arg.Pos(),
				"metric %s argument to Registry.%s must be a compile-time constant so the family set stays bounded",
				what, sel.Sel.Name)
			continue
		}
		if what == "name" && av.Value.Kind() == constant.String {
			if metricName := constant.StringVal(av.Value); !nameRe.MatchString(metricName) {
				pass.Reportf(arg.Pos(), "metric name %q is not a valid Prometheus metric name", metricName)
			}
		}
	}
}

// checkLabelsLiteral enforces constant, bounded keys on metrics.Labels
// literals.
func checkLabelsLiteral(pass *lintutil.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !lintutil.IsNamed(tv.Type, "internal/metrics", "Labels") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		kval := pass.TypesInfo.Types[kv.Key]
		if kval.Value == nil || kval.Value.Kind() != constant.String {
			pass.Reportf(kv.Key.Pos(), "metrics.Labels key must be a compile-time string constant")
			continue
		}
		if key := constant.StringVal(kval.Value); !slices.Contains(labelKeys, key) {
			pass.Reportf(kv.Key.Pos(),
				"metrics.Labels key %q is outside the bounded label set (%s); grow it deliberately in metriclabel's labelKeys",
				key, strings.Join(labelKeys, ","))
		}
	}
}
