package experiments

import (
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/fairness"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// e3Run drives one (allocator, rate) cell: a 16-peer domain under Poisson
// load for a fixed horizon, returning aggregate quality metrics.
type e3Cell struct {
	admitFrac  float64
	missRate   float64
	meanFair   float64
	p95Startup float64
	meanHops   float64
}

func runAllocCell(seed uint64, alloc graph.Allocator, rate float64, horizon sim.Time, adapt bool) e3Cell {
	cfg := core.DefaultConfig()
	cfg.Allocator = alloc
	if !adapt {
		cfg.AdaptPeriod = 0
	}
	c, cat := uniformDomain(cfg, seed, 16, 12, 2, 15)
	mix := workload.DefaultMix()
	mix.RatePerSec = rate
	mix.Objects = 12
	mix.DurationMeanSec = 15
	d := workload.NewDriver(c, cat, mix, rng.New(seed^0x5151))
	start := c.Eng.Now()
	d.Run(start, start+horizon)

	// Sample domain fairness each second during the loaded phase.
	var fairSamples metrics.Summary
	rmPeer := c.Peer(0)
	stop := env.Every(env.SimClock{Eng: c.Eng}, sim.Second, sim.Second, func() {
		if rmPeer.IsRM() {
			fairSamples.Observe(rmPeer.DomainFairness())
		}
	})
	c.RunUntil(start + horizon)
	stop.Cancel()
	c.RunUntil(c.Eng.Now() + 120*sim.Second) // drain

	ev := c.Events.Snapshot()
	var startup, hops metrics.Summary
	var chunks, missed int
	for _, r := range ev.Reports {
		chunks += r.Chunks
		missed += r.Missed
		startup.Observe(float64(r.StartupMicros) / 1000)
		hops.Observe(float64(r.Hops))
	}
	cell := e3Cell{meanFair: fairSamples.Mean(), meanHops: hops.Mean()}
	if ev.Submitted > 0 {
		cell.admitFrac = float64(ev.Admitted) / float64(ev.Submitted)
	}
	if chunks > 0 {
		cell.missRate = float64(missed) / float64(chunks)
	}
	cell.p95Startup = startup.Quantile(0.95)
	return cell
}

// E3AllocatorComparison sweeps offered load across allocation strategies:
// the paper's fairness-maximizing BFS against first-fit, greedy
// least-loaded and random baselines (§4.2-4.3).
func E3AllocatorComparison(opt Options) Result {
	res := Result{
		ID:    "E3",
		Title: "Allocator comparison under load sweep",
		Claim: "fairness-maximizing allocation keeps load balanced and admits more tasks within QoS than fairness-blind baselines",
	}
	res.Table.Header = []string{"allocator", "rate/s", "admit_frac", "chunk_miss", "mean_fairness", "mean_hops", "p95_startup_ms"}
	rates := []float64{0.5, 1.5, 3.0}
	horizon := 120 * sim.Second
	if opt.Quick {
		rates = []float64{0.5, 2.0}
		horizon = 60 * sim.Second
	}
	allocators := []graph.Allocator{
		graph.FairnessBFS{},
		graph.FirstFit{},
		graph.GreedyLeastLoaded{},
		&graph.RandomFeasible{R: rng.New(opt.Seed ^ 0x99)},
	}
	for _, a := range allocators {
		for _, rate := range rates {
			cell := runAllocCell(opt.Seed, a, rate, horizon, false)
			res.Table.AddRow(a.Name(), rate, cell.admitFrac, cell.missRate, cell.meanFair, cell.meanHops, cell.p95Startup)
		}
	}
	return res
}

// E5SchedulerComparison sweeps processor utilization across local
// scheduling policies, isolating §2's choice of LLS. Single processor,
// Poisson arrivals, bimodal deadline tightness.
func E5SchedulerComparison(opt Options) Result {
	res := Result{
		ID:    "E5",
		Title: "Local scheduler comparison (LLS vs EDF/FIFO/SJF/PRIO)",
		Claim: "deadline-aware local scheduling (LLS) misses fewer deadlines than deadline-blind policies as utilization grows",
	}
	res.Table.Header = []string{"policy", "utilization", "miss_ratio", "mean_lateness_ms"}
	utils := []float64{0.5, 0.8, 1.0, 1.2}
	tasksN := 4000
	if opt.Quick {
		utils = []float64{0.6, 1.1}
		tasksN = 1000
	}
	policies := []sched.Policy{sched.LLS{}, sched.EDF{}, sched.SJF{}, sched.FIFO{}, sched.Priority{}}
	for _, pol := range policies {
		for _, u := range utils {
			missRatio, lateness := runSchedCell(opt.Seed, pol, u, tasksN)
			res.Table.AddRow(pol.Name(), u, missRatio, lateness)
		}
	}
	return res
}

// runSchedCell simulates one (policy, utilization) cell.
func runSchedCell(seed uint64, pol sched.Policy, util float64, n int) (missRatio, meanLatenessMs float64) {
	r := rng.New(seed ^ uint64(util*1000))
	eng := sim.New()
	p := sched.NewProcessor(env.SimClock{Eng: eng}, 1, pol)
	meanWork := 0.05 // 50ms at speed 1
	rate := util / meanWork
	release := sim.Time(0)
	for i := 0; i < n; i++ {
		release += sim.Time(r.Exp(1/rate) * 1e6)
		work := r.Exp(meanWork)
		if work < 0.001 {
			work = 0.001
		}
		// Bimodal deadlines: half tight (1.5-3x exec), half loose (5-10x).
		var factor float64
		if r.Bool(0.5) {
			factor = r.Uniform(1.5, 3)
		} else {
			factor = r.Uniform(5, 10)
		}
		task := &sched.Task{
			ID:         sched.TaskID(i),
			Release:    release,
			Deadline:   release + sim.Time(work*factor*1e6),
			Work:       work,
			Importance: 1 + r.Intn(5),
		}
		eng.At(release, func() { p.Add(task) })
	}
	eng.Run()
	st := p.Stats()
	missRatio = st.MissRatio()
	if st.Missed > 0 {
		meanLatenessMs = st.TotalLateness.Millis() / float64(st.Missed)
	}
	return missRatio, meanLatenessMs
}

// A1ObjectiveAblation compares the fairness objective against a makespan
// (min-latency) objective and the exhaustive-optimal yardstick on
// identical workloads — the design-choice ablation DESIGN.md calls out.
func A1ObjectiveAblation(opt Options) Result {
	res := Result{
		ID:    "A1",
		Title: "Ablation: allocation objective (fairness vs latency vs exhaustive)",
		Claim: "optimizing fairness sacrifices little latency while keeping the load distribution uniform",
	}
	res.Table.Header = []string{"objective", "admit_frac", "chunk_miss", "mean_fairness", "mean_hops", "p95_startup_ms"}
	horizon := 120 * sim.Second
	rate := 2.0
	if opt.Quick {
		horizon = 60 * sim.Second
	}
	for _, a := range []graph.Allocator{graph.FairnessBFS{}, graph.MinLatency{}, graph.Exhaustive{}} {
		cell := runAllocCell(opt.Seed, a, rate, horizon, false)
		res.Table.AddRow(a.Name(), cell.admitFrac, cell.missRate, cell.meanFair, cell.meanHops, cell.p95Startup)
	}
	return res
}

// fairnessOfLoads is re-exported for tests.
func fairnessOfLoads(loads []float64) float64 { return fairness.Index(loads) }
