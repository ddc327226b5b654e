package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// workload is one named input set. run executes one repetition; sim
// marks workloads whose outcome is a pure function of the seed.
type workload struct {
	name string
	sim  bool
	run  func(seed uint64, traced bool) rep
}

// The four workloads stress different layers, so an optimisation of one
// layer has a workload that exercises it and one that bypasses it
// (README.md has the layer-to-workload table).
var (
	// sim-admit: one large domain with static membership, short sessions
	// offered below capacity. RM admission (internal/core rm +
	// internal/graph allocator) does nearly all the work; discovery,
	// repair and most of the data plane idle.
	simAdmit = simSpec{
		Peers: 128, MaxDomain: 160, Objects: 32, Replicas: 3, SvcPerPeer: 3, Clients: 64,
		Rate: 20, Arrivals: 120 * sim.Second, DurMeanSec: 4, DurMaxSec: 12, DeadlineMicros: 2_000_000,
		JoinSpacing: 20 * sim.Millisecond, Warmup: 10 * sim.Second, WarmupLoad: 30 * sim.Second, Drain: 60 * sim.Second,
	}
	// sim-churn: default-size gossip domains, Poisson crash/leave/join
	// churn and the default long-session mix, with objects spread so most
	// requests cross domains. The RM layer mostly handles membership
	// writes, graph rebuilds, repair and failover, next to gossip and
	// chunk streaming.
	simChurn = simSpec{
		Peers: 320, Objects: 64, Replicas: 2, SvcPerPeer: 3, Clients: 100,
		Rate: 5, Arrivals: 240 * sim.Second, DurMeanSec: 20, DurMaxSec: 60, DeadlineMicros: 2_000_000,
		ChurnPerMin: 20,
		JoinSpacing: 20 * sim.Millisecond, Warmup: 20 * sim.Second, Drain: 120 * sim.Second,
	}
	// sim-dht: the churn workload's domain size, session mix and object
	// spread on the DHT backend without churn: it isolates internal/dht
	// (lookups and routing upkeep) and bypasses gossip and repair. The
	// fleet is smaller than sim-churn's, and its per-peer request rate
	// higher, because DHT upkeep costs about ten times gossip's per
	// peer-second.
	simDHT = simSpec{
		Peers: 128, Discovery: core.DiscoveryDHT, Objects: 16, Replicas: 2, SvcPerPeer: 3, Clients: 40,
		Rate: 4, Arrivals: 120 * sim.Second, DurMeanSec: 20, DurMaxSec: 60, DeadlineMicros: 2_000_000,
		JoinSpacing: 20 * sim.Millisecond, Warmup: 20 * sim.Second, Drain: 120 * sim.Second,
	}
	// live-tcp: two live runtimes joined over loopback TCP, four peers
	// each in one domain, so every compose, chunk and report crosses the
	// codec, supervisors and sockets. Open-loop Poisson arrivals below
	// capacity; peers are fast enough that modelled transcode time does
	// not dominate startup.
	liveTCP = liveSpec{
		PeersPerSide: 4, Objects: 8, Rate: 500, Arrivals: 2 * time.Second,
		DurationSec: 0.5, ChunkSec: 0.1, DeadlineMicros: 1_000_000, Warmup: 10,
		Drain: 20 * time.Second, JoinTimeout: 20 * time.Second,
	}
)

var workloads = []workload{
	{name: "sim-admit", sim: true, run: func(seed uint64, traced bool) rep { return runSimRep(simAdmit, seed, traced) }},
	{name: "sim-churn", sim: true, run: func(seed uint64, traced bool) rep { return runSimRep(simChurn, seed, traced) }},
	{name: "sim-dht", sim: true, run: func(seed uint64, traced bool) rep { return runSimRep(simDHT, seed, traced) }},
	{name: "live-tcp", run: func(seed uint64, traced bool) rep { return runLiveRep(liveTCP, seed, traced) }},
}
