// Package cluster assembles simulated overlays: a discrete-event engine,
// a netsim network, and a population of core.Peer actors. It is the
// shared harness for the node tests, the experiment suite (E2–E10) and
// the public API's simulation mode.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Cluster is one simulated overlay run.
type Cluster struct {
	Eng    *sim.Engine
	Net    *netsim.Network
	Events *core.Events
	Cfg    core.Config
	R      *rng.Rand

	peers map[env.NodeID]*core.Peer
	ids   []env.NodeID
}

// New creates an empty cluster with the given node configuration, network
// model and seed.
func New(cfg core.Config, netCfg netsim.Config, seed uint64) *Cluster {
	eng := sim.New()
	r := rng.New(seed)
	return &Cluster{
		Eng:    eng,
		Net:    netsim.New(eng, r.Split(), netCfg),
		Events: &core.Events{},
		Cfg:    cfg,
		R:      r,
		peers:  make(map[env.NodeID]*core.Peer),
	}
}

// AddFounder starts the overlay's first node, which founds domain 0.
func (c *Cluster) AddFounder(info proto.PeerInfo) env.NodeID {
	return c.add(info, env.NoNode)
}

// AddPeer starts a node that joins through the given bootstrap contact.
func (c *Cluster) AddPeer(info proto.PeerInfo, bootstrap env.NodeID) env.NodeID {
	return c.add(info, bootstrap)
}

func (c *Cluster) add(info proto.PeerInfo, bootstrap env.NodeID) env.NodeID {
	p := core.New(c.Cfg, info, bootstrap, c.Events)
	id := c.Net.AddNode(p)
	c.peers[id] = p
	c.ids = append(c.ids, id)
	return id
}

// Peer returns the actor behind a node ID.
func (c *Cluster) Peer(id env.NodeID) *core.Peer { return c.peers[id] }

// IDs returns every node ever added, in creation order.
func (c *Cluster) IDs() []env.NodeID { return append([]env.NodeID(nil), c.ids...) }

// RMs returns the IDs of nodes currently holding the RM role, in ID order.
func (c *Cluster) RMs() []env.NodeID {
	var out []env.NodeID
	for _, id := range c.ids {
		if c.Net.Alive(id) && c.peers[id].IsRM() {
			out = append(out, id)
		}
	}
	return out
}

// JoinedCount counts live peers that are domain members.
func (c *Cluster) JoinedCount() int {
	n := 0
	for _, id := range c.ids {
		if c.Net.Alive(id) && c.peers[id].Joined() {
			n++
		}
	}
	return n
}

// Submit schedules a task submission from origin at the given time.
func (c *Cluster) Submit(at sim.Time, origin env.NodeID, spec proto.TaskSpec) {
	c.Eng.At(at, func() {
		if c.Net.Alive(origin) {
			c.peers[origin].SubmitTask(spec)
		}
	})
}

// Crash schedules a silent failure.
func (c *Cluster) Crash(at sim.Time, id env.NodeID) {
	c.Eng.At(at, func() { c.Net.Crash(id) })
}

// Leave schedules a graceful departure.
func (c *Cluster) Leave(at sim.Time, id env.NodeID) {
	c.Eng.At(at, func() { c.Net.Stop(id) })
}

// RunUntil advances the simulation.
func (c *Cluster) RunUntil(t sim.Time) { c.Eng.RunUntil(t) }

// PeerSpecs generates n heterogeneous peers: speeds and bandwidths drawn
// from bounded Pareto distributions (heavy-tailed, like real peer
// populations), uptimes exponential. qualifiedFrac of peers are forced to
// meet the RM qualification thresholds so domains can form.
func PeerSpecs(r *rng.Rand, n int, q proto.QualifyThresholds, qualifiedFrac float64) []proto.PeerInfo {
	out := make([]proto.PeerInfo, n)
	for i := range out {
		out[i] = DrawPeer(r, q, qualifiedFrac, proto.PeerInfo{})
	}
	return out
}

// DrawPeer draws one peer of the PeerSpecs population. Nonzero speed,
// bandwidth and uptime fields of base are kept in place of the draw;
// the draws happen regardless, so an override never shifts the stream
// for later peers.
func DrawPeer(r *rng.Rand, q proto.QualifyThresholds, qualifiedFrac float64, base proto.PeerInfo) proto.PeerInfo {
	info := base
	speed, bw, up := r.Pareto(2, 20, 1.2), r.Pareto(500, 20000, 1.0), r.Exp(3*3600)
	if info.SpeedWU == 0 {
		info.SpeedWU = speed
	}
	if info.BandwidthKbps == 0 {
		info.BandwidthKbps = bw
	}
	if info.UptimeSec == 0 {
		info.UptimeSec = up
	}
	if r.Float64() < qualifiedFrac {
		if info.SpeedWU < q.MinSpeedWU {
			info.SpeedWU = q.MinSpeedWU * r.Uniform(1, 2)
		}
		if info.BandwidthKbps < q.MinBandwidthKbps {
			info.BandwidthKbps = q.MinBandwidthKbps * r.Uniform(1, 3)
		}
		if info.UptimeSec < q.MinUptimeSec {
			info.UptimeSec = q.MinUptimeSec * r.Uniform(1, 4)
		}
	}
	return info
}

// Catalog is a standard format lattice plus transcoders used by the
// synthetic workloads: a few source formats and downscale/transcode
// services between them.
type Catalog struct {
	Sources []media.Format // formats objects are stored in
	Targets []media.Format // formats users may request
	Ladder  []media.Transcoder
}

// StandardCatalog builds the default format lattice modeled on the
// paper's example (MPEG-2 sources transcoded toward MPEG-4/H.263
// deliveries).
func StandardCatalog() Catalog {
	src := media.Format{Codec: media.MPEG2, Width: 800, Height: 600, BitrateKbps: 512}
	mid := media.Format{Codec: media.MPEG2, Width: 640, Height: 480, BitrateKbps: 256}
	tgt1 := media.Format{Codec: media.MPEG4, Width: 640, Height: 480, BitrateKbps: 64}
	tgt2 := media.Format{Codec: media.H263, Width: 320, Height: 240, BitrateKbps: 32}
	mid2 := media.Format{Codec: media.H263, Width: 640, Height: 480, BitrateKbps: 128}
	return Catalog{
		Sources: []media.Format{src, mid},
		Targets: []media.Format{tgt1, tgt2},
		Ladder: []media.Transcoder{
			{From: src, To: mid},
			{From: mid, To: tgt1},
			{From: mid, To: mid2},
			{From: mid2, To: tgt2},
			{From: mid, To: tgt2},
			{From: src, To: tgt1},
		},
	}
}

// Populate distributes objects and services across the given peer infos:
// each peer offers svcPerPeer random transcoders from the catalog's
// ladder, and objCount objects (named "obj-<i>") are placed on
// replicas copies each, with Zipf-popular placement.
func (cat Catalog) Populate(r *rng.Rand, infos []proto.PeerInfo, svcPerPeer, objCount, replicas int, objDurationSec float64) {
	for i := range infos {
		perm := r.Perm(len(cat.Ladder))
		k := svcPerPeer
		if k > len(perm) {
			k = len(perm)
		}
		for _, j := range perm[:k] {
			infos[i].Services = append(infos[i].Services, cat.Ladder[j])
		}
	}
	for o := 0; o < objCount; o++ {
		f := cat.Sources[r.Intn(len(cat.Sources))]
		obj := media.Object{
			Name:   fmt.Sprintf("obj-%d", o),
			Format: f,
			Hash:   r.Uint64(),
			Bytes:  int64(objDurationSec * float64(f.BitrateKbps) * 1000 / 8),
		}
		for c := 0; c < replicas; c++ {
			holder := r.Intn(len(infos))
			infos[holder].Objects = append(infos[holder].Objects, obj)
		}
	}
}

// Build creates a cluster of n peers from specs: the first is the
// founder, the rest join through random earlier nodes at joinSpacing
// intervals, exercising the redirect path.
func Build(cfg core.Config, netCfg netsim.Config, seed uint64, infos []proto.PeerInfo, joinSpacing sim.Time) *Cluster {
	c := New(cfg, netCfg, seed)
	for i, info := range infos {
		if i == 0 {
			c.AddFounder(info)
			continue
		}
		boot := c.ids[c.R.Intn(len(c.ids))]
		c.AddPeer(info, boot)
		// Space out joins so the overlay forms incrementally.
		if joinSpacing > 0 {
			c.Eng.RunUntil(c.Eng.Now() + joinSpacing)
		}
	}
	return c
}

// RequestConstraint returns a constraint matching one of the catalog's
// target formats.
func (cat Catalog) RequestConstraint(r *rng.Rand, relax bool) media.Constraint {
	t := cat.Targets[r.Intn(len(cat.Targets))]
	c := media.Constraint{
		Codecs:         []media.Codec{t.Codec},
		MaxWidth:       t.Width,
		MaxHeight:      t.Height,
		MaxBitrateKbps: t.BitrateKbps,
	}
	if relax {
		c.Codecs = nil
	}
	return c
}
