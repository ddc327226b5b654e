package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRandomScenarioInvariants drives many randomized end-to-end runs —
// random populations, request mixes, churn, background load, config
// variations — and asserts global invariants that must hold regardless of
// schedule:
//
//  1. accounting: every submission resolves (admitted or rejected), and
//     every admitted session either reports or was rejected pre-start;
//  2. no leaks after drain: no active sink/stage sessions, no residual
//     profiler load beyond declared background, empty scheduler queues;
//  3. consistency: reports never claim more received than chunks, RMs'
//     domain sizes cover exactly the live joined population;
//  4. RM tables: ordered, graph-consistent, backup a member, own domain
//     absent (CheckRMTables), mid-run and after the drain.
func TestRandomScenarioInvariants(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomScenario(t, seed)
		})
	}
}

func runRandomScenario(t *testing.T, seed uint64) {
	r := rng.New(seed*2654435761 + 17)
	cfg := core.DefaultConfig()
	cfg.MaxDomainPeers = 4 + r.Intn(20)
	cfg.PreemptLowImportance = r.Bool(0.3)
	if r.Bool(0.3) {
		cfg.AdaptPeriod = 0
	}
	if r.Bool(0.2) {
		cfg.MaxConnections = 4 + r.Intn(8)
	}
	n := 8 + r.Intn(20)
	infos := cluster.PeerSpecs(r, n, cfg.Qualify, 0.3+r.Float64()*0.5)
	cat := cluster.StandardCatalog()
	cat.Populate(r, infos, 1+r.Intn(5), 4+r.Intn(12), 1+r.Intn(3), 10+r.Float64()*20)

	netCfg := netsim.Config{
		Latency:    netsim.UniformLatency(sim.Time(1+r.Intn(40)) * sim.Millisecond),
		JitterFrac: r.Float64() * 0.4,
	}
	if r.Bool(0.25) {
		netCfg.LossRate = r.Float64() * 0.01
	}
	c := cluster.Build(cfg, netCfg, seed, infos, 50*sim.Millisecond)
	c.RunUntil(c.Eng.Now() + 15*sim.Second)

	mix := workload.DefaultMix()
	mix.Objects = 4 + r.Intn(12)
	mix.RatePerSec = 0.3 + r.Float64()*2
	mix.DurationMeanSec = 5 + r.Float64()*20
	d := workload.NewDriver(c, cat, mix, r.Split())
	start := c.Eng.Now()
	horizon := sim.Time(30+r.Intn(60)) * sim.Second
	d.Run(start, start+horizon)
	if r.Bool(0.5) {
		workload.Churn(c, r.Split(), start, start+horizon, r.Float64()*0.1, 0.7, nil)
	}
	// (4) RM tables, mid-run under churn and again after the drain.
	checkTables := func(when string) {
		for _, id := range c.RMs() {
			if err := c.Peer(id).CheckRMTables(); err != nil {
				t.Errorf("%s: RM n%d: %v", when, id, err)
			}
		}
	}
	for i := 1; i <= 4; i++ {
		c.Eng.At(start+horizon*sim.Time(i)/5, func() { checkTables("mid-run") })
	}
	if r.Bool(0.5) {
		workload.BackgroundNoise(c, r.Split(), start, start+horizon, 10*sim.Second, 0.3)
	}
	// Quiesce: background load off, long drain.
	c.Eng.At(start+horizon, func() {
		for _, id := range c.IDs() {
			if c.Net.Alive(id) {
				c.Peer(id).SetBackgroundLoad(0)
			}
		}
	})
	c.RunUntil(start + horizon + 4*sim.Minute)

	checkTables("after drain")
	ev := c.Events.Snapshot()

	// (1) accounting.
	if ev.Admitted+ev.Rejected < ev.Submitted {
		t.Fatalf("unresolved submissions: submitted=%d admitted=%d rejected=%d",
			ev.Submitted, ev.Admitted, ev.Rejected)
	}
	dead := len(c.IDs()) - c.Net.NumAlive()
	// A crashed sink whose session was additionally orphaned by an RM
	// failover can neither report nor be abort-accounted; bound such
	// losses by the crash count.
	if len(ev.Reports)+ev.Rejected+ev.Aborted+4*dead < ev.Admitted {
		t.Fatalf("sessions vanished: reports=%d rejected=%d aborted=%d dead=%d admitted=%d",
			len(ev.Reports), ev.Rejected, ev.Aborted, dead, ev.Admitted)
	}

	// (3) report consistency.
	for _, rep := range ev.Reports {
		if rep.Received > rep.Chunks || rep.Received < 0 {
			t.Fatalf("report out of range: %+v", rep)
		}
		if rep.Missed > rep.Chunks {
			t.Fatalf("missed > chunks: %+v", rep)
		}
	}

	// (2) no leaks after drain on every surviving node.
	for _, id := range c.IDs() {
		if !c.Net.Alive(id) {
			continue
		}
		p := c.Peer(id)
		if got := len(p.ActiveSinkSessions()); got != 0 {
			t.Errorf("peer %d leaked %d sink sessions", id, got)
		}
		if load := p.Profiler().Load(); load > 1e-9 {
			t.Errorf("peer %d leaked load %v", id, load)
		}
		if q := p.Processor().QueueLength(); q != 0 {
			t.Errorf("peer %d leaked %d scheduler tasks", id, q)
		}
	}

	// (3) membership coverage: every live joined peer is counted in
	// exactly one RM's domain.
	totalMembers := 0
	for _, id := range c.RMs() {
		totalMembers += c.Peer(id).DomainSize()
	}
	joined := 0
	for _, id := range c.IDs() {
		if c.Net.Alive(id) && c.Peer(id).Joined() {
			joined++
		}
	}
	// RM domain tables can briefly include peers that died moments ago
	// (before heartbeat timeout), so allow counted >= joined but bounded.
	if totalMembers < joined {
		t.Errorf("membership undercount: RM tables=%d joined=%d", totalMembers, joined)
	}
	if totalMembers > joined+dead {
		t.Errorf("membership overcount: RM tables=%d joined=%d dead=%d", totalMembers, joined, dead)
	}
}
