package main

import (
	"fmt"
	"os"

	"repro/internal/scenario"
)

// runScenario executes a declarative scenario file on the deterministic
// simulator (`p2psim -scenario f.yaml`): parse, expand under the seed,
// run, evaluate the file's assertions, and render the verdict. The
// machine-readable report lands at reportPath when given. Exit 0 only
// when every assertion passed.
//
// seedSet says whether -seed was passed explicitly; otherwise the
// file's own seed drives the run so committed scenarios reproduce their
// committed reports.
func runScenario(path string, seed uint64, seedSet bool, reportPath, discovery string) int {
	spec, err := scenario.Load(path, discovery)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !seedSet {
		seed = spec.Seed
	}
	plan, err := scenario.Expand(spec, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario %s: %v\n", path, err)
		return 1
	}
	rep := scenario.RunSim(plan)
	rep.Render(os.Stdout)
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario report: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "scenario report: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "scenario report: %v\n", err)
			return 1
		}
	}
	if !rep.Pass {
		return 1
	}
	return 0
}
