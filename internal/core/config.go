package core

import (
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config tunes a peer's protocol behavior. DefaultConfig returns the
// values used by the experiments unless a sweep overrides them.
type Config struct {
	// MaxDomainPeers caps domain membership (§4.1: "the only parameter
	// determining the domain size is the maximum number of processing
	// peers a Resource Manager can manage").
	MaxDomainPeers int

	// Qualify holds the RM eligibility thresholds (§4.1).
	Qualify proto.QualifyThresholds

	// HeartbeatPeriod is the RM's liveness-probe interval; a peer (or the
	// RM itself) is declared dead after HeartbeatMisses silent periods.
	HeartbeatPeriod sim.Time
	HeartbeatMisses int

	// ProfilePeriod is the intra-domain load-update interval (§4.4; swept
	// by E10).
	ProfilePeriod sim.Time

	// BackupSyncPeriod is the RM→backup state replication interval
	// (swept by A2).
	BackupSyncPeriod sim.Time

	// GossipPeriod is the inter-domain anti-entropy interval (§4.4;
	// swept by E8). Zero disables gossip.
	GossipPeriod sim.Time

	// Discovery selects the inter-domain discovery backend:
	// DiscoveryGossip (the default, Bloom-summary anti-entropy) or
	// DiscoveryDHT (the Kademlia-style overlay in internal/dht).
	Discovery string

	// DHT tunes the structured overlay when Discovery is DiscoveryDHT;
	// zero values select the dht package defaults.
	DHT dht.Config

	// SummaryMaxAge ages out gossiped domain summaries that have not
	// been refreshed within this window ("updated lazily" cuts both
	// ways: a domain that dissolved or partitioned away keeps answering
	// redirect and object lookups forever without an expiry). Zero
	// disables aging, preserving the committed experiment tables.
	SummaryMaxAge sim.Time

	// AdaptPeriod is the overload-check interval (§4.5). Zero disables
	// adaptive reassignment (the E9 ablation).
	AdaptPeriod sim.Time

	// OverloadUtil is the utilization above which a peer counts as
	// overloaded; ReassignMargin is how much spare another peer must
	// have for a migration to be attempted.
	OverloadUtil   float64
	ReassignMargin float64

	// Allocator chooses task execution sequences (§4.3). Experiments
	// swap in baselines here.
	Allocator graph.Allocator

	// SchedPolicy orders local task execution (§2; LLS in the paper).
	SchedPolicy sched.Policy

	// LatencyEstimateMicros is the RM's per-hop communication estimate
	// used in allocation feasibility checks before it has measured
	// communication times.
	LatencyEstimateMicros int64

	// Bloom geometry for domain summaries (§3.1).
	BloomM uint64
	BloomK uint32

	// MaxRedirects bounds inter-domain task forwarding (§4.5).
	MaxRedirects int

	// MaxConnections caps the peer's simultaneous overlay connections
	// (§2: "the number of connections is typically limited by the
	// resources at the peer"). A peer at capacity refuses new pipeline
	// roles. Zero means unlimited.
	MaxConnections int

	// PreemptLowImportance lets the RM abort a running lower-importance
	// session to admit a task that otherwise has no feasible allocation,
	// realizing the paper's Importance_t metric (§3.3) in the spirit of
	// the value-based schedulers it cites (§5). Off by default; the A3
	// ablation measures its effect.
	PreemptLowImportance bool

	// ComposeTimeout bounds how long the RM waits for ComposeAcks before
	// aborting a session setup.
	ComposeTimeout sim.Time

	// DefaultChunkSec is used when a TaskSpec leaves ChunkSec zero.
	DefaultChunkSec float64

	// Nanotime, when set, supplies a monotonic nanosecond reading used
	// to cost allocator computations (Events.AllocNanos, E4/E11). Nil
	// means "derive from the injected env.Clock": under simulation the
	// virtual clock does not advance while the allocator runs, so the
	// cost reads as zero and runs stay bit-reproducible. The live
	// runtime injects the real monotonic clock here — wall time is an
	// input of the deployment, not of the simulation.
	Nanotime func() int64
}

// DefaultConfig returns the baseline configuration.
func DefaultConfig() Config {
	return Config{
		MaxDomainPeers: 32,
		Qualify: proto.QualifyThresholds{
			MinSpeedWU:       4,
			MinBandwidthKbps: 1000,
			MinUptimeSec:     1800,
		},
		HeartbeatPeriod:       500 * sim.Millisecond,
		HeartbeatMisses:       3,
		ProfilePeriod:         1 * sim.Second,
		BackupSyncPeriod:      2 * sim.Second,
		GossipPeriod:          3 * sim.Second,
		AdaptPeriod:           2 * sim.Second,
		OverloadUtil:          0.90,
		ReassignMargin:        0.25,
		Allocator:             graph.FairnessBFS{},
		SchedPolicy:           sched.LLS{},
		LatencyEstimateMicros: 20_000,
		BloomM:                4096,
		BloomK:                4,
		MaxRedirects:          3,
		ComposeTimeout:        2 * sim.Second,
		DefaultChunkSec:       1.0,
	}
}
