package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/live"
	"repro/internal/metrics"
)

// LiveHooks injects wall-clock access into the live runner. This
// package is on the determinism-critical lint list — scenario
// interpretation itself never reads the process clock; the hooks are
// supplied by the CLI (live.Nanotime and a real sleep). Conversions
// like time.Duration below are fine: they do not observe the
// environment.
type LiveHooks struct {
	// NowMicros returns monotonic microseconds since an arbitrary epoch.
	NowMicros func() int64
	// SleepMicros blocks for the given duration.
	SleepMicros func(int64)
	// Nanotime, when non-nil, is handed to core.Config.Nanotime so
	// allocator costing uses real CPU time (live.Nanotime).
	Nanotime func() int64
}

// LiveOptions configures RunLive.
type LiveOptions struct {
	// Part/Parts split the fleet across processes: this process hosts
	// node indexes with index%Parts == Part. Parts <= 1 hosts everything
	// in-process.
	Part, Parts int
	// PartAddrs lists each part's TCP listen address, index-aligned with
	// parts. Required when Parts > 1; this part listens on its own entry
	// and routes every foreign node index to its owner's entry.
	PartAddrs []string
	// Pace divides scripted times: 2.0 runs the timeline twice as fast.
	// Zero means 1.
	Pace float64
	// Transport tunes the TCP transport (Parts > 1 only).
	Transport live.TransportConfig
	Hooks     LiveHooks
}

// RunLive executes an expanded plan on the live goroutine runtime: the
// same file that drives the simulator maps onto live.FaultInjector
// rules and supervisor lifecycle (Kill/Stop). The returned report
// reflects this process's share of the fleet.
func RunLive(p *Plan, opts LiveOptions) (*Report, error) {
	if opts.Hooks.NowMicros == nil || opts.Hooks.SleepMicros == nil {
		return nil, fmt.Errorf("scenario: RunLive needs clock hooks")
	}
	parts := opts.Parts
	if parts <= 1 {
		parts, opts.Part = 1, 0
	}
	if parts > 1 && len(opts.PartAddrs) != parts {
		return nil, fmt.Errorf("scenario: %d parts need %d addresses, got %d", parts, parts, len(opts.PartAddrs))
	}
	pace := opts.Pace
	if pace <= 0 {
		pace = 1
	}

	cfg := p.config()
	if opts.Hooks.Nanotime != nil {
		cfg.Nanotime = opts.Hooks.Nanotime
	}
	rt := live.NewRuntime(p.Seed)
	events := &core.Events{}
	ob := observe(events)
	fi := rt.EnsureFaultInjector()

	var tr *live.TCPTransport
	if parts > 1 {
		tr = live.NewTCPTransportOpts(rt, opts.Transport, metrics.NewRegistry(), nil)
		if _, err := tr.Listen(opts.PartAddrs[opts.Part]); err != nil {
			return nil, fmt.Errorf("scenario: part %d listen: %w", opts.Part, err)
		}
		for i := range p.Nodes {
			if i%parts != opts.Part {
				tr.Register(env.NodeID(i), opts.PartAddrs[i%parts])
			}
		}
		defer tr.Close()
	}
	defer rt.Shutdown()

	h := &liveHost{
		rt: rt, fi: fi, cfg: cfg, events: events, plan: p,
		part: opts.Part, parts: parts,
		peers: make([]*core.Peer, len(p.Nodes)),
	}
	start := opts.Hooks.NowMicros()
	for i := range p.Actions {
		a := &p.Actions[i]
		due := start + int64(float64(a.At)/pace)
		if wait := due - opts.Hooks.NowMicros(); wait > 0 {
			opts.Hooks.SleepMicros(wait)
		}
		p.apply(h, a)
	}
	endAt := start + int64(float64(p.Spec.Duration)/pace)
	if wait := endAt - opts.Hooks.NowMicros(); wait > 0 {
		opts.Hooks.SleepMicros(wait)
	}

	fs := fi.Stats()
	return ob.report(p, "live", Outcome{
		NowMicros:  rt.NowMicros(),
		FaultDrops: fs.Dropped,
		FaultDups:  fs.Duplicated,
	}), nil
}

// liveHost runs plan actions on a live runtime. Node indexes are the
// global IDs (AddNodeWithID), so multi-part fleets agree on addressing.
type liveHost struct {
	rt     *live.Runtime
	fi     *live.FaultInjector
	cfg    core.Config
	events *core.Events
	plan   *Plan
	part   int
	parts  int
	peers  []*core.Peer // locally hosted, by index; nil otherwise
	dead   []int        // indexes this host killed or stopped
}

// local returns the peer this part hosts under id, or nil.
func (h *liveHost) local(id env.NodeID) *core.Peer {
	if int(id)%h.parts != h.part {
		return nil
	}
	return h.peers[id]
}

func (h *liveHost) start(i int) {
	if i%h.parts != h.part {
		return
	}
	n := &h.plan.Nodes[i]
	boot := env.NoNode
	if n.Bootstrap >= 0 {
		boot = env.NodeID(n.Bootstrap)
	}
	p := core.New(h.cfg, n.Info, boot, h.events)
	h.rt.AddNodeWithID(env.NodeID(i), p)
	h.peers[i] = p
}

func (h *liveHost) node(i int) (env.NodeID, bool) {
	return env.NodeID(i), i >= 0 && i < len(h.peers)
}

func (h *liveHost) alive(id env.NodeID) bool { return !containsInt(h.dead, int(id)) }

// rm consults only locally hosted peers (multi-part scenarios should
// avoid rm targets); the lowest RM-holding index wins so concurrent
// runs agree when one RM exists.
func (h *liveHost) rm() (env.NodeID, bool) {
	for i, p := range h.peers {
		if p == nil || containsInt(h.dead, i) {
			continue
		}
		is := false
		h.rt.Call(env.NodeID(i), func() { is = p.IsRM() })
		if is {
			return env.NodeID(i), true
		}
	}
	return 0, false
}

func (h *liveHost) call(id env.NodeID, fn func(*core.Peer)) {
	if p := h.local(id); p != nil {
		h.rt.Call(id, func() { fn(p) })
	}
}

func (h *liveHost) stop(id env.NodeID, crash bool) {
	if h.local(id) == nil {
		return
	}
	if crash {
		h.rt.Kill(id)
	} else {
		h.rt.Stop(id)
	}
	h.dead = append(h.dead, int(id))
}

// Fault rules are installed on every part: each sender suppresses its
// own side.
func (h *liveHost) sever(a, b env.NodeID) { h.fi.Sever(a, b) }
func (h *liveHost) heal(a, b env.NodeID)  { h.fi.Heal(a, b) }
func (h *liveHost) healAll()              { h.fi.Clear() }

func (h *liveHost) setFault(a, b env.NodeID, f Fault) {
	h.fi.Set(a, b, live.FaultRule{
		Drop:  f.Drop,
		Dup:   f.Dup,
		Delay: time.Duration(f.DelayMicros) * time.Microsecond,
	})
}
