package main

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchcmp"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts(" 1, 2,3 ")
	if err != nil || len(ints) != 3 || ints[2] != 3 {
		t.Fatalf("parseInts = %v, %v", ints, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad int accepted")
	}
	floats, err := parseFloats("0.5, 1.5")
	if err != nil || len(floats) != 2 || floats[1] != 1.5 {
		t.Fatalf("parseFloats = %v, %v", floats, err)
	}
	if _, err := parseFloats("a"); err == nil {
		t.Fatal("bad float accepted")
	}
}

// TestRunCellIndependentUnderConcurrency backs the -parallel flag: cells
// derive all state from their own (seed, params) rng, so concurrent
// execution must yield the same CSV rows as sequential.
func TestRunCellIndependentUnderConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulated cells")
	}
	type cell struct {
		n    int
		rate float64
	}
	grid := []cell{{12, 0.5}, {16, 1.0}}
	seq := make([]string, len(grid))
	for i, g := range grid {
		seq[i] = runCell(7, g.n, g.rate, 0, 16, 15*sim.Second, nil)
	}
	par := make([]string, len(grid))
	var wg sync.WaitGroup
	for i, g := range grid {
		wg.Add(1)
		go func(i int, g cell) {
			defer wg.Done()
			par[i] = runCell(7, g.n, g.rate, 0, 16, 15*sim.Second, nil)
		}(i, g)
	}
	wg.Wait()
	for i := range grid {
		if par[i] != seq[i] {
			t.Errorf("cell %d diverged under concurrency:\npar %s\nseq %s", i, par[i], seq[i])
		}
	}
}

func TestSortedNames(t *testing.T) {
	names := sortedNames(map[string]benchcmp.Metrics{"B": {}, "A": {}, "C": {}})
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Fatalf("sortedNames = %v", names)
	}
}

func TestRunCellProducesCSVRow(t *testing.T) {
	reg := metrics.NewRegistry()
	row := runCell(1, 12, 0.5, 0, 16, 20*sim.Second, reg)
	fields := strings.Split(row, ",")
	if len(fields) != 13 {
		t.Fatalf("fields = %d: %q", len(fields), row)
	}
	if fields[0] != "12" || fields[1] != "0.5" {
		t.Fatalf("row prefix: %q", row)
	}
	if len(reg.Snapshot()) == 0 {
		t.Fatal("attached registry stayed empty over a loaded run")
	}
}

// failedThenPass is `go test -bench -count 3` output whose first run
// failed: go test still ends it with PASS and exit status 0.
const failedThenPass = `goos: linux
goarch: amd64
pkg: repro/internal/replay
BenchmarkDeliver/tcp/recording=on-2   	  300000	      4012 ns/op	      48 B/op	       3 allocs/op
--- FAIL: BenchmarkDeliver/tcp/recording=on-2
    e2e_test.go:88: recorder shed 12 events
BenchmarkDeliver/tcp/recording=on-2   	  300000	      3987 ns/op	      48 B/op	       3 allocs/op
BenchmarkDeliver/tcp/recording=on-2   	  300000	      3990 ns/op	      48 B/op	       3 allocs/op
PASS
ok  	repro/internal/replay	9.120s
`

// TestRegressFailsOnFailLine: the gate fails on a --- FAIL line even when
// go test exits 0, and passes the same output without it.
func TestRegressFailsOnFailLine(t *testing.T) {
	run := func(output string) int {
		return runRegress(regressConfig{
			bench: "Deliver/tcp", count: 3, dir: t.TempDir(), tolerance: 0.5, pkg: "./internal/replay",
			date: "2026-01-01", dry: true,
			goTest: func([]string) ([]byte, error) { return []byte(output), nil },
		}, io.Discard)
	}
	if code := run(failedThenPass); code == 0 {
		t.Fatal("regress passed output holding a --- FAIL line")
	}
	var clean []string
	for _, line := range strings.Split(failedThenPass, "\n") {
		if !strings.HasPrefix(line, "--- FAIL") && !strings.Contains(line, "recorder shed") {
			clean = append(clean, line)
		}
	}
	if code := run(strings.Join(clean, "\n")); code != 0 {
		t.Fatalf("regress failed clean output with code %d", code)
	}
}
