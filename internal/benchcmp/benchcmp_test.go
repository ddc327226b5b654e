package benchcmp

import (
	"path/filepath"
	"strings"
	"testing"
)

const fixture = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkAllocationFigure3-8 	 7463497	       332.9 ns/op	      32 B/op	       1 allocs/op
BenchmarkAllocationFigure3-8 	 7445697	       337.3 ns/op	      32 B/op	       1 allocs/op
BenchmarkAllocationFigure3-8 	 7449885	       336.5 ns/op	      32 B/op	       1 allocs/op
BenchmarkE1Figure1Paths-8    	   10000	    114514 ns/op
some unrelated line
PASS
ok  	repro	8.490s
`

func TestParseAndAggregate(t *testing.T) {
	samples, snap, err := Parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GoOS != "linux" || snap.GoArch != "amd64" || !strings.Contains(snap.CPU, "Xeon") {
		t.Fatalf("header = %+v", snap)
	}
	if len(samples["BenchmarkAllocationFigure3"]) != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if len(samples["BenchmarkE1Figure1Paths"]) != 1 {
		t.Fatalf("ns-only line not parsed: %v", samples)
	}
	agg := Aggregate(samples)
	fig3 := agg["BenchmarkAllocationFigure3"]
	if fig3.NsPerOp != 332.9 || fig3.BytesPerOp != 32 || fig3.AllocsPerOp != 1 || fig3.Runs != 3 {
		t.Fatalf("aggregate = %+v, want min of each over 3 runs", fig3)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	prev := map[string]Metrics{
		"BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 1},
		"BenchmarkB":    {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkGone": {NsPerOp: 50},
	}
	cur := map[string]Metrics{
		"BenchmarkA":   {NsPerOp: 119, AllocsPerOp: 1}, // +19%: within 20%
		"BenchmarkB":   {NsPerOp: 121, AllocsPerOp: 2}, // +21% ns and +2 allocs
		"BenchmarkNew": {NsPerOp: 9999},                // no baseline: ignored
	}
	regs := Compare(prev, cur, 0.20, 0.10)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want ns/op and allocs/op on B", regs)
	}
	for _, r := range regs {
		if r.Name != "BenchmarkB" {
			t.Fatalf("unexpected regression %v", r)
		}
		if s := r.String(); !strings.Contains(s, "BenchmarkB") {
			t.Fatalf("String() = %q", s)
		}
	}
	if regs := Compare(prev, map[string]Metrics{"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0}}, 0.2, 0); len(regs) != 0 {
		t.Fatalf("0->0 allocs flagged: %v", regs)
	}
}

func TestSnapshotRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	older := &Snapshot{Date: "2026-08-01", Benchmarks: map[string]Metrics{"BenchmarkA": {NsPerOp: 100}}}
	newer := &Snapshot{Date: "2026-08-06", GoOS: "linux", Benchmarks: map[string]Metrics{"BenchmarkA": {NsPerOp: 90, Runs: 5}}}
	if err := older.WriteFile(SnapshotPath(dir, older.Date)); err != nil {
		t.Fatal(err)
	}
	if err := newer.WriteFile(SnapshotPath(dir, newer.Date)); err != nil {
		t.Fatal(err)
	}
	path, got, ok, err := Latest(dir)
	if err != nil || !ok {
		t.Fatalf("Latest: %v ok=%v", err, ok)
	}
	if filepath.Base(path) != "BENCH_2026-08-06.json" {
		t.Fatalf("Latest picked %s", path)
	}
	if got.Date != "2026-08-06" || got.Benchmarks["BenchmarkA"].NsPerOp != 90 || got.Benchmarks["BenchmarkA"].Runs != 5 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, _, ok, err := Latest(t.TempDir()); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
}

// TestParseReportsFailLines: a --- FAIL line is an error even when the
// output ends in PASS.
func TestParseReportsFailLines(t *testing.T) {
	out := fixture + "--- FAIL: BenchmarkAllocationFigure3-8\n    x_test.go:9: boom\nPASS\n"
	samples, _, err := Parse(strings.NewReader(out))
	if err == nil || !strings.Contains(err.Error(), "--- FAIL: BenchmarkAllocationFigure3-8") {
		t.Fatalf("Parse error = %v, want the failed benchmark named", err)
	}
	if len(samples["BenchmarkAllocationFigure3"]) != 3 {
		t.Fatalf("samples lost on failure: %v", samples)
	}
	if _, _, err := Parse(strings.NewReader(fixture)); err != nil {
		t.Fatalf("clean output: %v", err)
	}
}
