package scenario

import (
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/stats"
)

// host is what the plan interpreter needs from a runtime. simHost
// drives the deterministic simulator, liveHost the live goroutine
// runtime; apply maps every plan action onto these calls.
type host interface {
	// start starts plan node i.
	start(i int)
	// node maps plan node i to its runtime ID; ok is false until i starts.
	node(i int) (id env.NodeID, ok bool)
	// alive reports whether a started node is neither crashed nor stopped.
	alive(id env.NodeID) bool
	// rm returns the current resource manager; ok is false when none is
	// known.
	rm() (id env.NodeID, ok bool)
	// call runs fn on the node's event loop; it does nothing for a node
	// this host does not run.
	call(id env.NodeID, fn func(p *core.Peer))
	// stop crashes (crash) or gracefully stops a node this host runs.
	stop(id env.NodeID, crash bool)
	sever(a, b env.NodeID)
	heal(a, b env.NodeID)
	healAll()
	setFault(a, b env.NodeID, f Fault)
}

// resolve maps a plan target to a runtime ID; ok is false when the
// target is not started, dead, or names an RM that does not exist.
func resolve(h host, target int) (env.NodeID, bool) {
	switch target {
	case TargetAny:
		return env.NoNode, true // the wildcard of both fault tables
	case TargetRM:
		return h.rm()
	}
	id, ok := h.node(target)
	return id, ok && h.alive(id)
}

func resolvePair(h host, a, b int) (env.NodeID, env.NodeID, bool) {
	ia, oka := resolve(h, a)
	ib, okb := resolve(h, b)
	return ia, ib, oka && okb
}

// apply performs one plan action on a runtime. An action whose target
// does not resolve is a no-op, which keeps the plan runtime-neutral.
func (p *Plan) apply(h host, a *Action) {
	switch a.Kind {
	case ActStart:
		h.start(a.A)
	case ActSubmit:
		if id, ok := resolve(h, a.A); ok {
			spec := a.Spec
			spec.Origin = id
			h.call(id, func(pr *core.Peer) { pr.SubmitTask(spec) })
		}
	case ActCrash, ActLeave:
		if id, ok := resolve(h, a.A); ok {
			h.stop(id, a.Kind == ActCrash)
		}
	case ActLoad:
		if id, ok := resolve(h, a.A); ok {
			h.call(id, func(pr *core.Peer) { pr.SetBackgroundLoad(pr.Info().SpeedWU * a.Frac) })
		}
	case ActCatalog:
		if id, ok := resolve(h, a.A); ok {
			h.call(id, func(pr *core.Peer) {
				if a.Op == "add" {
					pr.AddObject(p.CatalogObject(a.Name))
				} else {
					pr.RemoveObject(a.Name)
				}
			})
		}
	case ActSever:
		if ia, ib, ok := resolvePair(h, a.A, a.B); ok {
			h.sever(ia, ib)
		}
	case ActHeal:
		if ia, ib, ok := resolvePair(h, a.A, a.B); ok {
			h.heal(ia, ib)
		}
	case ActFault:
		if ia, ib, ok := resolvePair(h, a.A, a.B); ok {
			h.setFault(ia, ib, a.Fault)
		}
	case ActHealAll:
		h.healAll()
	case ActPartition:
		for _, pair := range CrossPairs(a.Groups) {
			if ia, ib, ok := resolvePair(h, pair[0], pair[1]); ok {
				h.sever(ia, ib)
			}
		}
	case ActHealPairs:
		for _, pair := range a.Pairs {
			// Heal regardless of aliveness: rules outlive their nodes.
			ia, oka := h.node(pair[0])
			ib, okb := h.node(pair[1])
			if oka && okb {
				h.heal(ia, ib)
			}
		}
	}
}

// config is the core configuration both runtimes start peers with.
func (p *Plan) config() core.Config {
	cfg := core.DefaultConfig()
	if p.Spec.Discovery != "" {
		cfg.Discovery = p.Spec.Discovery
	}
	return cfg
}

// observer attaches the sketches and the decision log a run's
// assertions read to the run's event sink.
type observer struct {
	events *core.Events
	sk     *stats.Set
	dec    *core.DecisionLog
}

func observe(events *core.Events) *observer {
	ob := &observer{events: events, sk: stats.NewSet(0, 0, 0), dec: core.NewDecisionLog(0)}
	events.AttachSketches(ob.sk)
	events.AttachDecisions(ob.dec)
	return ob
}

// report completes o, which carries the runtime's clock and drop
// counters, with the observed events, sketches and decisions, and
// evaluates the plan's assertions against it.
func (ob *observer) report(p *Plan, runtime string, o Outcome) *Report {
	o.Events = ob.events.Snapshot()
	o.MissRate = ob.events.MissRate()
	o.Quantile = ob.sk.Quantile
	o.Decisions = ob.dec.Snapshot()
	return Evaluate(p.Spec, runtime, p.Seed, &o)
}
