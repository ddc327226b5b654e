// Command p2pbench sweeps a simulated overlay across a parameter grid and
// emits CSV, for plotting or regression tracking beyond the fixed
// experiment suite. With -regress it instead runs the repo's root
// benchmarks, snapshots the results as bench/BENCH_<date>.json, and fails
// when they regress past a tolerance versus the previous snapshot.
//
// Usage:
//
//	p2pbench [-peers 16,64,256] [-rates 0.5,1,2] [-churn 0,6]
//	         [-domain 32] [-seed 42] [-horizon 120] [-parallel N]
//	p2pbench -regress [-regress-bench '.'] [-regress-count 5]
//	         [-regress-benchtime 1s] [-regress-dir bench]
//	         [-regress-tolerance 0.20]
//	p2pbench -scenario f.yaml [-scenario-runs 3] [-seed N]
//
// Output columns (sweep mode):
//
//	peers,rate,churn_per_min,domains,submitted,admitted,rejected,
//	redirected,repairs,failovers,sessions_done,chunk_miss,msgs_total
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/profutil"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		peersFlag  = flag.String("peers", "16,64", "overlay sizes to sweep")
		ratesFlag  = flag.String("rates", "0.5,1.5", "task arrival rates (tasks/s)")
		churnFlag  = flag.String("churn", "0", "churn rates (events/min)")
		domainCap  = flag.Int("domain", 32, "max peers per domain")
		seed       = flag.Uint64("seed", 42, "run seed")
		horizonSec = flag.Int("horizon", 120, "loaded-phase length (sim seconds)")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep cells to run concurrently (CSV order is preserved)")
		metricsOut = flag.String("metrics", "", "write the last cell's labeled metrics registry as JSON here")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here")
		memProfile = flag.String("memprofile", "", "write a heap profile here on exit")

		regress    = flag.Bool("regress", false, "benchmark regression mode: run root benchmarks, compare vs the last snapshot, record a new one")
		regBench   = flag.String("regress-bench", ".", "benchmark pattern passed to go test -bench")
		regCount   = flag.Int("regress-count", 5, "repetitions per benchmark (-count); minimum is taken")
		regTime    = flag.String("regress-benchtime", "", "per-benchmark time or iteration budget (-benchtime)")
		regDir     = flag.String("regress-dir", "bench", "directory holding BENCH_<date>.json snapshots")
		regTol     = flag.Float64("regress-tolerance", 0.20, "allowed fractional ns/op increase before failing")
		regPkg     = flag.String("regress-pkg", ".", "package whose benchmarks are run")
		regDate    = flag.String("regress-date", "", "snapshot date stamp (default: today, YYYY-MM-DD)")
		regDry     = flag.Bool("regress-dry", false, "compare only; do not write a new snapshot")
		regVerbose = flag.Bool("regress-v", false, "echo raw go test -bench output")

		scenFile = flag.String("scenario", "", "scenario timing mode: run this declarative scenario file on the simulator and emit per-run timing CSV (skips the sweep)")
		scenRuns = flag.Int("scenario-runs", 3, "with -scenario: number of runs (seeds seed, seed+1, ...)")
	)
	flag.Parse()

	stopCPU, err := profutil.StartCPU(*cpuProfile)
	die(err)
	exit := func(code int) {
		die(stopCPU())
		die(profutil.WriteHeap(*memProfile))
		os.Exit(code)
	}

	if *scenFile != "" {
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		exit(runScenarioBench(*scenFile, *seed, seedSet, *scenRuns))
	}

	if *regress {
		date := *regDate
		if date == "" {
			date = time.Now().UTC().Format("2006-01-02")
		}
		code := runRegress(regressConfig{
			bench: *regBench, count: *regCount, benchtime: *regTime,
			dir: *regDir, tolerance: *regTol, pkg: *regPkg,
			date: date, dry: *regDry, verbose: *regVerbose,
		}, os.Stdout)
		exit(code)
	}

	peers, err := parseInts(*peersFlag)
	die(err)
	rates, err := parseFloats(*ratesFlag)
	die(err)
	churns, err := parseFloats(*churnFlag)
	die(err)

	type cell struct {
		n     int
		rate  float64
		churn float64
	}
	var grid []cell
	for _, n := range peers {
		for _, rate := range rates {
			for _, churn := range churns {
				grid = append(grid, cell{n, rate, churn})
			}
		}
	}

	fmt.Println("peers,rate,churn_per_min,domains,submitted,admitted,rejected,redirected,repairs,failovers,sessions_done,chunk_miss,msgs_total")
	rows := make([]string, len(grid))
	var reg *metrics.Registry // last cell's registry, for -metrics
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(grid) {
		workers = len(grid)
	}
	// Each cell builds its own cluster and rng from (seed, cell params), so
	// cells are independent and the CSV is identical at any worker count.
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				g := grid[i]
				var cellReg *metrics.Registry
				if *metricsOut != "" {
					cellReg = metrics.NewRegistry()
				}
				rows[i] = runCell(*seed, g.n, g.rate, g.churn, *domainCap, sim.Time(*horizonSec)*sim.Second, cellReg)
				if *metricsOut != "" && i == len(grid)-1 {
					reg = cellReg
				}
			}
		}()
	}
	for i := range grid {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	for _, row := range rows {
		fmt.Println(row)
	}

	if *metricsOut != "" && reg != nil {
		f, err := os.Create(*metricsOut)
		die(err)
		die(reg.WriteJSON(f))
		die(f.Close())
	}
	exit(0)
}

type regressConfig struct {
	bench     string
	count     int
	benchtime string
	dir       string
	tolerance float64
	pkg       string
	date      string
	dry       bool
	verbose   bool
	// goTest runs `go` with args and returns its standard output; nil
	// runs the go command.
	goTest func(args []string) ([]byte, error)
}

// runRegress runs the benchmarks, compares against the previous snapshot,
// and writes a fresh BENCH_<date>.json when nothing regressed. On
// regression it reports the violations and exits nonzero WITHOUT writing a
// snapshot, so a bad run can never become the new baseline.
func runRegress(cfg regressConfig, out io.Writer) int {
	args := []string{"test", "-run", "^$", "-bench", cfg.bench, "-benchmem",
		"-count", strconv.Itoa(cfg.count)}
	if cfg.benchtime != "" {
		args = append(args, "-benchtime", cfg.benchtime)
	}
	args = append(args, cfg.pkg)
	fmt.Fprintf(out, "regress: go %s\n", strings.Join(args, " "))
	goTest := cfg.goTest
	if goTest == nil {
		goTest = func(args []string) ([]byte, error) {
			cmd := exec.Command("go", args...)
			cmd.Stderr = os.Stderr
			return cmd.Output()
		}
	}
	raw, err := goTest(args)
	if cfg.verbose {
		os.Stdout.Write(raw)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "regress: benchmark run failed: %v\n", err)
		return 2
	}

	samples, snap, err := benchcmp.Parse(strings.NewReader(string(raw)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "regress: benchmark output: %v\n", err)
		return 2
	}
	if len(samples) == 0 {
		fmt.Fprintf(os.Stderr, "regress: no benchmarks matched %q\n", cfg.bench)
		return 2
	}
	snap.Date = cfg.date
	snap.Benchmarks = benchcmp.Aggregate(samples)

	for _, name := range sortedNames(snap.Benchmarks) {
		m := snap.Benchmarks[name]
		fmt.Fprintf(out, "  %-40s %12.1f ns/op %10.0f B/op %8.1f allocs/op  (min of %d)\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.Runs)
	}

	prevPath, prev, ok, err := benchcmp.Latest(cfg.dir)
	die(err)
	if ok {
		regs := benchcmp.Compare(prev.Benchmarks, snap.Benchmarks, cfg.tolerance, cfg.tolerance)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "regress: %d regression(s) vs %s:\n", len(regs), prevPath)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			return 1
		}
		fmt.Fprintf(out, "regress: no regressions vs %s (tolerance %.0f%%)\n", prevPath, cfg.tolerance*100)
	} else {
		fmt.Fprintf(out, "regress: no previous snapshot in %s; seeding the trajectory\n", cfg.dir)
	}

	if cfg.dry {
		fmt.Fprintln(out, "regress: dry run; snapshot not written")
		return 0
	}
	// A partial run (e.g. the Quick gate's single benchmark) must not
	// shrink the baseline: carry benchmarks it did not re-measure forward
	// from the previous snapshot.
	if ok {
		for name, m := range prev.Benchmarks {
			if _, measured := snap.Benchmarks[name]; !measured {
				snap.Benchmarks[name] = m
			}
		}
	}
	path := benchcmp.SnapshotPath(cfg.dir, cfg.date)
	die(snap.WriteFile(path))
	fmt.Fprintf(out, "regress: wrote %s\n", path)
	return 0
}

func sortedNames(m map[string]benchcmp.Metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func runCell(seed uint64, n int, rate, churnPerMin float64, domainCap int, horizon sim.Time, reg *metrics.Registry) string {
	cfg := core.DefaultConfig()
	cfg.Nanotime = live.Nanotime // benchmark cells report real allocator CPU cost
	cfg.MaxDomainPeers = domainCap
	r := rng.New(seed ^ uint64(n)<<20 ^ uint64(rate*1000) ^ uint64(churnPerMin*7))
	infos := cluster.PeerSpecs(r, n, cfg.Qualify, 0.4)
	cat := cluster.StandardCatalog()
	cat.Populate(r, infos, 3, n, 3, 15)
	netCfg := netsim.Config{Latency: netsim.UniformLatency(10 * sim.Millisecond), JitterFrac: 0.2}
	c := cluster.Build(cfg, netCfg, seed, infos, 50*sim.Millisecond)
	c.Events.AttachMetrics(reg) // nil-safe; covers the loaded phase below
	c.RunUntil(c.Eng.Now() + 20*sim.Second)

	mix := workload.DefaultMix()
	mix.Objects = n
	mix.RatePerSec = rate
	d := workload.NewDriver(c, cat, mix, r.Split())
	start := c.Eng.Now()
	d.Run(start, start+horizon)
	if churnPerMin > 0 {
		workload.Churn(c, r.Split(), start, start+horizon, churnPerMin/60, 0.7, nil)
	}
	c.RunUntil(start + horizon + 90*sim.Second)

	ev := c.Events.Snapshot()
	return fmt.Sprintf("%d,%g,%g,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d",
		n, rate, churnPerMin, len(c.RMs()),
		ev.Submitted, ev.Admitted, ev.Rejected, ev.Redirected,
		ev.Repairs, ev.Failovers, len(ev.Reports),
		c.Events.MissRate(), c.Net.Stats().Sent)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
