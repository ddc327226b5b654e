package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/scenario"
)

// runScenarioBench is p2pbench's scenario timing mode: execute one
// declarative scenario file on the deterministic simulator `runs` times
// (seed, seed+1, ...) and emit one CSV row per run — wall-clock cost
// plus the outcome counters, for tracking how the chaos suite's
// heaviest files trend over time. Assertion results are reported per
// row; a failing run fails the sweep. Table content is deterministic
// given the seeds; only wall_ms varies.
func runScenarioBench(path string, seed uint64, seedSet bool, runs int) int {
	spec, err := scenario.Load(path, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !seedSet {
		seed = spec.Seed
	}
	if runs < 1 {
		runs = 1
	}

	fmt.Println("run,seed,pass,wall_ms,submitted,admitted,rejected,failovers,repairs,fault_drops,net_drops")
	code := 0
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		plan, err := scenario.Expand(spec, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %s seed %d: %v\n", path, s, err)
			return 2
		}
		start := time.Now()
		rep := scenario.RunSim(plan)
		wall := time.Since(start)
		sum := rep.Summary
		fmt.Printf("%d,%d,%t,%.1f,%d,%d,%d,%d,%d,%d,%d\n",
			i, s, rep.Pass, float64(wall.Microseconds())/1000,
			sum.Submitted, sum.Admitted, sum.Rejected,
			sum.Failovers, sum.Repairs, sum.FaultDrops, sum.NetDrops)
		if !rep.Pass {
			code = 1
		}
	}
	return code
}
