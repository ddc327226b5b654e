package scenario

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunSim executes an expanded plan on the deterministic simulator:
// actions are scheduled on the virtual clock, faults map onto netsim's
// per-pair rules, and lifecycle onto Crash/Stop. Equal (file, seed)
// runs are byte-identical — the cluster seed, every plan draw and every
// netsim stream derive from the scenario seed alone.
func RunSim(p *Plan) *Report { return RunSimTraced(p, nil) }

// RunSimTraced is RunSim with a span tracer attached; the determinism
// gate compares the traces of two equal-seed runs byte for byte.
func RunSimTraced(p *Plan, tr *trace.Tracer) *Report {
	s := p.Spec
	netCfg := netsim.Config{
		Latency:    netsim.UniformLatency(s.Net.Latency),
		JitterFrac: s.Net.Jitter,
		LossRate:   s.Net.Loss,
	}
	c := cluster.New(p.config(), netCfg, stream(p.Seed, "cluster").Uint64())
	if tr != nil {
		c.Events.AttachTracer(tr)
		tr.SetSeed(p.Seed)
	}
	ob := observe(c.Events)

	h := &simHost{c: c, p: p, ids: make([]env.NodeID, 0, len(p.Nodes))}
	for i := range p.Actions {
		a := &p.Actions[i]
		c.Eng.At(a.At, func() { p.apply(h, a) })
	}
	c.RunUntil(s.Duration)

	st := c.Net.Stats()
	return ob.report(p, "sim", Outcome{
		NowMicros:  int64(c.Eng.Now()),
		FaultDrops: st.FaultDrops,
		FaultDups:  st.FaultDups,
		NetDrops:   st.Dropped,
	})
}

// simHost runs plan actions on a cluster. ids maps plan node index to
// netsim NodeID, appended as starts fire in index order (equal-time
// starts keep schedule order).
type simHost struct {
	c   *cluster.Cluster
	p   *Plan
	ids []env.NodeID
}

func (h *simHost) start(i int) {
	n := h.p.Nodes[i]
	if n.Bootstrap < 0 {
		h.ids = append(h.ids, h.c.AddFounder(n.Info))
		return
	}
	h.ids = append(h.ids, h.c.AddPeer(n.Info, h.ids[n.Bootstrap]))
}

func (h *simHost) node(i int) (env.NodeID, bool) {
	if i < 0 || i >= len(h.ids) {
		return 0, false
	}
	return h.ids[i], true
}

func (h *simHost) alive(id env.NodeID) bool { return h.c.Net.Alive(id) }

func (h *simHost) rm() (env.NodeID, bool) {
	rms := h.c.RMs()
	if len(rms) == 0 {
		return 0, false
	}
	return rms[0], true
}

func (h *simHost) call(id env.NodeID, fn func(*core.Peer)) { fn(h.c.Peer(id)) }

func (h *simHost) stop(id env.NodeID, crash bool) {
	if crash {
		h.c.Net.Crash(id)
	} else {
		h.c.Net.Stop(id)
	}
}

func (h *simHost) sever(a, b env.NodeID) { h.c.Net.Sever(a, b) }
func (h *simHost) heal(a, b env.NodeID)  { h.c.Net.Heal(a, b) }
func (h *simHost) healAll()              { h.c.Net.ClearFaults() }

func (h *simHost) setFault(a, b env.NodeID, f Fault) {
	h.c.Net.SetFault(a, b, netsim.FaultRule{Drop: f.Drop, Dup: f.Dup, Delay: sim.Time(f.DelayMicros)})
}
