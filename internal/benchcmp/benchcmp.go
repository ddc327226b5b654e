// Package benchcmp implements the benchmark regression harness behind
// `p2pbench -regress` and `make bench`: it parses standard `go test
// -bench` output, aggregates repeated runs, persists snapshots as
// BENCH_<date>.json files, and compares a fresh run against the previous
// snapshot with a tolerance — failing loudly on regression. Snapshots
// committed to the repo seed the ROADMAP's measured performance
// trajectory.
//
// The package never reads the wall clock: callers stamp snapshots with an
// injected date string, keeping the harness usable from deterministic
// contexts and trivially testable.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics are one benchmark's aggregated numbers.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Runs        int     `json:"runs"` // samples aggregated into this entry
}

// Snapshot is one recorded benchmark run, serialized as BENCH_<date>.json.
type Snapshot struct {
	Date       string             `json:"date"` // YYYY-MM-DD, supplied by the caller
	GoOS       string             `json:"goos,omitempty"`
	GoArch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// benchLine matches `BenchmarkName-8  123  45.6 ns/op  7 B/op  8 allocs/op`.
// The -8 GOMAXPROCS suffix is stripped from the recorded name so snapshots
// compare across machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// Parse reads `go test -bench` output: per-benchmark samples (one per
// -count repetition) plus the goos/goarch/cpu header lines. Any
// `--- FAIL` line makes it return an error naming every failure: `go
// test` can end such output with PASS and exit status 0 when the failed
// run was not the last of a -count batch.
func Parse(r io.Reader) (samples map[string][]Metrics, snap Snapshot, err error) {
	samples = make(map[string][]Metrics)
	var failed []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "--- FAIL"):
			failed = append(failed, line)
			continue
		case strings.HasPrefix(line, "goos: "):
			snap.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			snap.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[2])
		var sample Metrics
		got := false
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			switch rest[i+1] {
			case "ns/op":
				sample.NsPerOp, got = v, true
			case "B/op":
				sample.BytesPerOp = v
			case "allocs/op":
				sample.AllocsPerOp = v
			}
		}
		if got {
			sample.Runs = 1
			samples[name] = append(samples[name], sample)
		}
	}
	if len(failed) > 0 {
		return samples, snap, fmt.Errorf("%d failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return samples, snap, sc.Err()
}

// Aggregate reduces repeated samples to one Metrics per benchmark, taking
// the minimum of each measure: the fastest repetition is the closest
// estimate of the code's cost, with scheduler and GC noise only ever
// adding time (the same convention benchstat's p-value-free reading uses).
func Aggregate(samples map[string][]Metrics) map[string]Metrics {
	out := make(map[string]Metrics, len(samples))
	for name, ss := range samples {
		if len(ss) == 0 {
			continue
		}
		agg := ss[0]
		agg.Runs = len(ss)
		for _, s := range ss[1:] {
			if s.NsPerOp < agg.NsPerOp {
				agg.NsPerOp = s.NsPerOp
			}
			if s.BytesPerOp < agg.BytesPerOp {
				agg.BytesPerOp = s.BytesPerOp
			}
			if s.AllocsPerOp < agg.AllocsPerOp {
				agg.AllocsPerOp = s.AllocsPerOp
			}
		}
		out[name] = agg
	}
	return out
}

// Regression is one tolerance violation found by Compare.
type Regression struct {
	Name   string  // benchmark name
	Metric string  // "ns/op" or "allocs/op"
	Old    float64 // previous snapshot value
	New    float64 // current value
	Limit  float64 // the tolerated maximum
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (limit %.4g)", r.Name, r.Metric, r.Old, r.New, r.Limit)
}

// Compare checks cur against prev over the benchmarks present in both.
// nsTol and allocTol are fractional tolerances (0.20 = +20% allowed).
// allocs/op gets a +0.5 absolute grace so a 0→0 or 1→1 comparison cannot
// trip on formatting, while 1→2 still fails at any sane tolerance.
func Compare(prev, cur map[string]Metrics, nsTol, allocTol float64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, ok := prev[name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		c := cur[name]
		if limit := p.NsPerOp * (1 + nsTol); p.NsPerOp > 0 && c.NsPerOp > limit {
			regs = append(regs, Regression{name, "ns/op", p.NsPerOp, c.NsPerOp, limit})
		}
		if limit := p.AllocsPerOp*(1+allocTol) + 0.5; c.AllocsPerOp > limit {
			regs = append(regs, Regression{name, "allocs/op", p.AllocsPerOp, c.AllocsPerOp, limit})
		}
	}
	return regs
}

// WriteFile serializes the snapshot as indented JSON at path, creating
// parent directories as needed.
func (s *Snapshot) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadFile reads a snapshot written by WriteFile.
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// SnapshotPath returns dir/BENCH_<date>.json.
func SnapshotPath(dir, date string) string {
	return filepath.Join(dir, "BENCH_"+date+".json")
}

// Latest returns the lexically greatest BENCH_*.json in dir — with
// ISO-8601 dates that is the most recent snapshot. It returns ok=false
// when the directory holds none (the first run seeds the trajectory).
func Latest(dir string) (path string, snap *Snapshot, ok bool, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		return "", nil, false, err
	}
	sort.Strings(matches)
	path = matches[len(matches)-1]
	snap, err = LoadFile(path)
	if err != nil {
		return "", nil, false, err
	}
	return path, snap, true, nil
}
