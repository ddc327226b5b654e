package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/fairness"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// simSpec sizes one simulated workload. Every draw derives from the run
// seed, and Config.Nanotime stays nil, so a repetition is a pure function
// of (spec, seed): wall time is the only thing that differs between
// repetitions.
type simSpec struct {
	Peers      int
	MaxDomain  int    // Config.MaxDomainPeers; 0 keeps the default
	Discovery  string // Config.Discovery
	Objects    int
	Replicas   int
	SvcPerPeer int
	Clients    int // peers that submit tasks; churn never touches them

	Rate           float64  // task arrivals per virtual second
	Arrivals       sim.Time // measured arrival window
	DurMeanSec     float64  // exponential session length, capped at DurMaxSec
	DurMaxSec      float64
	DeadlineMicros int64
	ChurnPerMin    float64 // crash + leave + join events per virtual minute

	JoinSpacing sim.Time // between successive joins during set-up
	Warmup      sim.Time // after the last join, before the first arrival
	WarmupLoad  sim.Time // arrivals at Rate over the end of set-up, before measuring
	Drain       sim.Time // bound on the wait for every task to resolve
}

// Seed streams: each kind of draw has its own stream so changing one
// (say, the churn rate) leaves the others' draws where they were.
const (
	streamFleet = 0xf1ee7
	streamTasks = 0x7a5c5
	streamChurn = 0xc4c4
	streamNet   = 0x4e7
)

// simFleet is one simulated overlay: the engine, the network, and the
// peers, optionally wrapped for the traced run.
type simFleet struct {
	spec   simSpec
	cfg    core.Config
	cat    cluster.Catalog
	eng    *sim.Engine
	net    *netsim.Network
	events *core.Events
	sk     *stats.Set
	peers  []*core.Peer
	actors []*tracedActor // parallel to peers in the traced run, else nil
	traced bool
	client []bool // indexed by node ID
	gen    *taskGen
}

func newSimFleet(spec simSpec, seed uint64, traced bool) *simFleet {
	cfg := core.DefaultConfig()
	if spec.MaxDomain > 0 {
		cfg.MaxDomainPeers = spec.MaxDomain
	}
	if spec.Discovery != "" {
		cfg.Discovery = spec.Discovery
	}
	eng := sim.New()
	f := &simFleet{
		spec: spec,
		cfg:  cfg,
		cat:  cluster.StandardCatalog(),
		eng:  eng,
		net: netsim.New(eng, rng.New(rng.Derive(seed, streamNet)), netsim.Config{
			Latency:    netsim.UniformLatency(10 * sim.Millisecond),
			JitterFrac: 0.2,
		}),
		events: &core.Events{},
		sk:     stats.NewSet(0, 0, 0),
		traced: traced,
	}
	// The same sinks the public Simulation attaches.
	f.events.AttachSketches(f.sk)
	f.events.AttachDecisions(core.NewDecisionLog(0))
	return f
}

// add starts one peer and returns its ID (IDs are dense from 0).
func (f *simFleet) add(info proto.PeerInfo, boot env.NodeID) env.NodeID {
	var id env.NodeID
	if f.traced {
		a := newTracedPeer(f.cfg, info, boot, f.events, f.eng.Pending)
		id = f.net.AddNode(a)
		f.peers = append(f.peers, a.peer)
		f.actors = append(f.actors, a)
	} else {
		p := core.New(f.cfg, info, boot, f.events)
		id = f.net.AddNode(p)
		f.peers = append(f.peers, p)
	}
	f.client = append(f.client, false)
	return id
}

// build grows the fleet through the join protocol and lets it converge.
// It reports an error when a peer is still outside every domain.
func (f *simFleet) build(seed uint64) error {
	r := rng.New(rng.Derive(0, streamFleet))
	infos := cluster.PeerSpecs(r, f.spec.Peers, f.cfg.Qualify, 0.5)
	f.cat.Populate(r, infos, f.spec.SvcPerPeer, f.spec.Objects, f.spec.Replicas, f.spec.DurMaxSec+5)
	for i, info := range infos {
		boot := env.NoNode
		if i > 0 {
			boot = env.NodeID(r.Intn(i))
		}
		f.add(info, boot)
		f.eng.RunUntil(f.eng.Now() + f.spec.JoinSpacing)
	}
	// Clients are drawn from the non-founders so churn may still take
	// down domain 0's Resource Manager.
	for _, i := range r.Perm(f.spec.Peers - 1)[:f.spec.Clients] {
		f.client[i+1] = true
	}
	f.eng.RunUntil(f.eng.Now() + f.spec.Warmup)
	if n := f.joined(); n != f.spec.Peers {
		return fmt.Errorf("%d of %d peers joined after set-up", n, f.spec.Peers)
	}
	f.gen = newTaskGen(f, seed)
	if f.spec.WarmupLoad > 0 {
		f.gen.arrivals(f.eng.Now(), f.eng.Now()+f.spec.WarmupLoad)
		f.eng.RunUntil(f.eng.Now() + f.spec.WarmupLoad)
	}
	return nil
}

func (f *simFleet) joined() int {
	n := 0
	for id, p := range f.peers {
		if f.net.Alive(env.NodeID(id)) && p.Joined() {
			n++
		}
	}
	return n
}

// taskGen draws the Poisson task stream, submitted from client peers.
type taskGen struct {
	f       *simFleet
	r       *rng.Rand
	zipf    *rng.Zipf
	clients []env.NodeID
	issued  int
}

func newTaskGen(f *simFleet, seed uint64) *taskGen {
	g := &taskGen{f: f, r: rng.New(rng.Derive(seed, streamTasks))}
	g.zipf = rng.NewZipf(g.r.Split(), f.spec.Objects, 0.8)
	for id, c := range f.client {
		if c {
			g.clients = append(g.clients, env.NodeID(id))
		}
	}
	return g
}

// schedule places the measured phase's task arrivals and churn on the
// engine.
func (f *simFleet) schedule(seed uint64) {
	start := f.eng.Now()
	f.gen.arrivals(start, start+f.spec.Arrivals)
	if f.spec.ChurnPerMin > 0 {
		f.scheduleChurn(seed, start, start+f.spec.Arrivals)
	}
}

// arrivals schedules Poisson arrivals over [start, end).
func (g *taskGen) arrivals(start, end sim.Time) {
	f, r := g.f, g.r
	for t := start; ; {
		t += sim.Time(r.Exp(1/f.spec.Rate) * 1e6)
		if t >= end {
			return
		}
		g.issued++
		origin := g.clients[r.Intn(len(g.clients))]
		spec := proto.TaskSpec{
			ID:             fmt.Sprintf("b-%d", g.issued),
			ObjectName:     fmt.Sprintf("obj-%d", g.zipf.Next()),
			Constraint:     f.cat.RequestConstraint(r, r.Bool(0.3)),
			DeadlineMicros: f.spec.DeadlineMicros,
			Importance:     1 + r.Intn(5),
			DurationSec:    math.Min(math.Max(1, r.Exp(f.spec.DurMeanSec)), f.spec.DurMaxSec),
			ChunkSec:       1,
		}
		f.eng.At(t, func() {
			switch {
			case !f.net.Alive(origin):
			case f.traced:
				f.actors[origin].submit(spec)
			default:
				f.peers[origin].SubmitTask(spec)
			}
		})
	}
}

// scheduleChurn draws Poisson churn over [start, end): each event crashes
// a live non-client peer, stops one gracefully, or joins a newcomer,
// with equal odds. Victims are picked when the event fires.
func (f *simFleet) scheduleChurn(seed uint64, start, end sim.Time) {
	r := rng.New(rng.Derive(seed, streamChurn))
	for t := start; ; {
		t += sim.Time(r.Exp(60/f.spec.ChurnPerMin) * 1e6)
		if t >= end {
			return
		}
		kind := r.Intn(3)
		var info proto.PeerInfo
		if kind == 2 {
			infos := cluster.PeerSpecs(r, 1, f.cfg.Qualify, 0.5)
			f.cat.Populate(r, infos, f.spec.SvcPerPeer, 0, 0, 0)
			info = infos[0]
		}
		f.eng.At(t, func() {
			var live []env.NodeID
			for id := range f.peers {
				if f.net.Alive(env.NodeID(id)) && !f.client[id] {
					live = append(live, env.NodeID(id))
				}
			}
			if len(live) == 0 {
				return
			}
			v := live[r.Intn(len(live))]
			switch kind {
			case 0:
				f.net.Crash(v)
			case 1:
				f.net.Stop(v)
			default:
				f.add(info, v)
			}
		})
	}
}

// fairness is Jain's index of the utilisation of every live member.
func (f *simFleet) fairness(buf []float64) ([]float64, float64) {
	buf = buf[:0]
	for id, p := range f.peers {
		if f.net.Alive(env.NodeID(id)) && p.Joined() {
			buf = append(buf, p.Profiler().Utilization())
		}
	}
	return buf, fairness.Index(buf)
}

// probes sums every traced actor's counters (zero when untraced).
func (f *simFleet) probes() layerCounts {
	var c layerCounts
	for _, a := range f.actors {
		c.add(a.pr.c)
	}
	return c
}
