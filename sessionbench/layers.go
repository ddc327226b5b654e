package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The traced run measures each layer from the outside, at its public
// seam: every core.Peer is wrapped in an env.Actor that times Receive by
// message type, its env.Context is wrapped to time After callbacks and
// to count (and encode) every Send, and Config.Allocator and
// Config.SchedPolicy are wrapped per peer. Nothing inside the program
// changes, so the wrapped run must reproduce the untraced run's
// simulation exactly; main.go checks that it does.

// layer names one seam the traced run attributes time and counts to.
type layer int

const (
	layerAdmit  layer = iota // RM admission: TaskSubmit, ComposeAck, SessionEnd, TaskReject, SubmitTask calls
	layerMember              // membership: joins, heartbeats, profiles, backup sync, takeover, Init
	layerData                // data plane: GraphCompose, SessionStart, Chunk, SessionAbort
	layerGossip              // gossip discovery: digests and summaries
	layerDHT                 // DHT discovery: FindNode, FindValue, Store, Nodes, Providers
	layerTimer               // env.Context.After callbacks
	layerAlloc               // Config.Allocator.Allocate
	layerEncode              // proto.AppendMessage of each sent message
	numLayers
)

// classify maps a protocol message to the layer that handles it.
func classify(m env.Message) layer {
	switch m.(type) {
	case proto.TaskSubmit, proto.ComposeAck, proto.SessionEnd, proto.TaskReject:
		return layerAdmit
	case proto.GraphCompose, proto.SessionStart, proto.Chunk, proto.SessionAbort:
		return layerData
	case proto.GossipDigest, proto.GossipSummaries:
		return layerGossip
	case proto.FindNode, proto.FindValue, proto.Store, proto.Nodes, proto.Providers:
		return layerDHT
	default:
		return layerMember
	}
}

// layerCounts is what one actor's probe accumulated. All fields are
// plain sums so snapshots subtract and actors add.
type layerCounts struct {
	Calls [numLayers]uint64 // handler invocations (messages received, timers fired, allocator calls, encodes)
	Nanos [numLayers]int64  // self time: inclusive time minus nested timed calls

	Chunks        uint64 // proto.Chunk messages received
	AllocFeasible uint64 // Allocate calls that returned an allocation
	PolicyCalls   uint64 // sched.Policy Less + PreemptAt calls
	EncodedBytes  uint64 // bytes of the compact encoding of every sent message
	Unencodable   uint64 // sent messages outside the compact codec's set
	PeakPending   int    // highest engine queue seen at a handler entry (sim only)
}

func (c *layerCounts) add(o layerCounts) {
	for i := range c.Calls {
		c.Calls[i] += o.Calls[i]
		c.Nanos[i] += o.Nanos[i]
	}
	c.Chunks += o.Chunks
	c.AllocFeasible += o.AllocFeasible
	c.PolicyCalls += o.PolicyCalls
	c.EncodedBytes += o.EncodedBytes
	c.Unencodable += o.Unencodable
	if o.PeakPending > c.PeakPending {
		c.PeakPending = o.PeakPending
	}
}

func (c layerCounts) sub(o layerCounts) layerCounts {
	for i := range c.Calls {
		c.Calls[i] -= o.Calls[i]
		c.Nanos[i] -= o.Nanos[i]
	}
	c.Chunks -= o.Chunks
	c.AllocFeasible -= o.AllocFeasible
	c.PolicyCalls -= o.PolicyCalls
	c.EncodedBytes -= o.EncodedBytes
	c.Unencodable -= o.Unencodable
	return c
}

// handlerNanos is the total self time of every timed layer.
func (c layerCounts) handlerNanos() int64 {
	var n int64
	for _, v := range c.Nanos {
		n += v
	}
	return n
}

// clockBase anchors monoNanos; only differences are used.
var clockBase = time.Now()

func monoNanos() int64 { return int64(time.Since(clockBase)) }

// probe is one actor's accounting. Every method runs on that actor's
// event loop (the sim engine's single thread, or the live node's
// goroutine), so it needs no locking; readers take snapshots on the same
// loop.
type probe struct {
	c       layerCounts
	open    []int64 // per open timed call: nanos spent in nested timed calls
	buf     []byte  // reused encode buffer
	pending func() int
}

func (p *probe) enter() int64 {
	if p.pending != nil {
		if n := p.pending(); n > p.c.PeakPending {
			p.c.PeakPending = n
		}
	}
	p.open = append(p.open, 0)
	return monoNanos()
}

func (p *probe) exit(l layer, start int64) {
	elapsed := monoNanos() - start
	top := len(p.open) - 1
	p.c.Calls[l]++
	p.c.Nanos[l] += elapsed - p.open[top]
	p.open = p.open[:top]
	if top > 0 {
		p.open[top-1] += elapsed
	}
}

// tracedActor wraps one peer.
type tracedActor struct {
	peer *core.Peer
	pr   *probe
}

// newTracedPeer builds a peer whose allocator and scheduling policy are
// wrapped to report to the returned actor's probe. pending, when non-nil,
// reads the simulation's event-queue length.
func newTracedPeer(cfg core.Config, info proto.PeerInfo, bootstrap env.NodeID, events *core.Events, pending func() int) *tracedActor {
	pr := &probe{pending: pending}
	cfg.Allocator = tracedAllocator{inner: cfg.Allocator, pr: pr}
	cfg.SchedPolicy = tracedPolicy{inner: cfg.SchedPolicy, pr: pr}
	return &tracedActor{peer: core.New(cfg, info, bootstrap, events), pr: pr}
}

func (a *tracedActor) Init(ctx env.Context) {
	t := a.pr.enter()
	a.peer.Init(tracedContext{Context: ctx, pr: a.pr})
	a.pr.exit(layerMember, t)
}

func (a *tracedActor) Receive(from env.NodeID, m env.Message) {
	l := classify(m)
	if _, ok := m.(proto.Chunk); ok {
		a.pr.c.Chunks++
	}
	t := a.pr.enter()
	a.peer.Receive(from, m)
	a.pr.exit(l, t)
}

func (a *tracedActor) Stop() {
	t := a.pr.enter()
	a.peer.Stop()
	a.pr.exit(layerMember, t)
}

// submit issues a task on the actor's loop, timed as admission work.
func (a *tracedActor) submit(spec proto.TaskSpec) {
	t := a.pr.enter()
	a.peer.SubmitTask(spec)
	a.pr.exit(layerAdmit, t)
}

// tracedContext times timer callbacks and encodes every sent message
// once with the compact wire codec.
type tracedContext struct {
	env.Context
	pr *probe
}

func (c tracedContext) After(d sim.Time, fn func()) env.Cancel {
	pr := c.pr
	return c.Context.After(d, func() {
		t := pr.enter()
		fn()
		pr.exit(layerTimer, t)
	})
}

func (c tracedContext) Send(to env.NodeID, m env.Message) {
	pr := c.pr
	t := pr.enter()
	b, ok := proto.AppendMessage(pr.buf[:0], m)
	pr.exit(layerEncode, t)
	if ok {
		pr.buf = b
		pr.c.EncodedBytes += uint64(len(b))
	} else {
		pr.c.Unencodable++
	}
	c.Context.Send(to, m)
}

// tracedAllocator times Figure-3 allocations and counts feasible ones.
type tracedAllocator struct {
	inner graph.Allocator
	pr    *probe
}

func (a tracedAllocator) Name() string { return a.inner.Name() }

func (a tracedAllocator) Allocate(g *graph.ResourceGraph, req graph.Request, pv *graph.PeerView) (graph.Allocation, error) {
	t := a.pr.enter()
	alloc, err := a.inner.Allocate(g, req, pv)
	a.pr.exit(layerAlloc, t)
	if err == nil {
		a.pr.c.AllocFeasible++
	}
	return alloc, err
}

// tracedPolicy counts local-scheduler policy calls. The calls are far
// shorter than a clock read, so they are counted, not timed.
type tracedPolicy struct {
	inner sched.Policy
	pr    *probe
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Less(a, b *sched.Task, now sim.Time, speed float64) bool {
	p.pr.c.PolicyCalls++
	return p.inner.Less(a, b, now, speed)
}

func (p tracedPolicy) PreemptAt(running *sched.Task, queued []*sched.Task, now sim.Time, speed float64) sim.Time {
	p.pr.c.PolicyCalls++
	return p.inner.PreemptAt(running, queued, now, speed)
}
