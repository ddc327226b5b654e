// Package netsim is the deterministic network runtime: it hosts actors
// (internal/env) on a discrete-event engine and delivers their messages
// with configurable latency, bandwidth serialization delay, jitter and
// loss. It is the substrate every experiment runs on.
//
// Substitution note (DESIGN.md): the paper deployed on a wide-area
// overlay; this model reproduces the properties the protocols are
// sensitive to — delay, asymmetric capacity, loss, churn — while keeping
// runs bit-reproducible.
package netsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/env"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config sets the network model. Zero values mean "ideal": zero latency,
// infinite bandwidth, no jitter, no loss.
type Config struct {
	// Latency returns the base one-way latency between two distinct
	// nodes. nil means zero.
	Latency func(from, to env.NodeID) sim.Time
	// BandwidthKbps returns the link capacity used to compute the
	// serialization delay of Sized messages. nil or <=0 means infinite.
	BandwidthKbps func(from, to env.NodeID) float64
	// JitterFrac adds a uniform random [0, JitterFrac) fraction of the
	// base latency to each delivery.
	JitterFrac float64
	// LossRate drops each message independently with this probability.
	LossRate float64
	// Trace, if non-nil, receives every log line from node Logf calls.
	Trace func(line string)
}

// UniformLatency returns a Latency function with a constant one-way delay.
func UniformLatency(d sim.Time) func(env.NodeID, env.NodeID) sim.Time {
	return func(from, to env.NodeID) sim.Time { return d }
}

// Stats counts network activity for the experiment harnesses (E4's
// message-overhead measurements). The Fault* counters attribute
// impairments injected through SetFault separately from the model's own
// loss, so chaos scenarios can assert on what the injector actually did.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64 // loss or dead receiver
	FaultDrops uint64 // dropped by an installed fault rule (incl. severs)
	FaultDups  uint64 // duplicated by an installed fault rule
	FaultDelay uint64 // delayed by an installed fault rule
	KBytes     float64
	PerType    map[string]uint64     // message type name -> sent count
	PerNode    map[env.NodeID]uint64 // receiver -> delivered count (hotspot metric)
}

// FaultRule describes injected impairments for one directed node pair —
// the sim mirror of live.FaultRule. Sever blackholes the pair entirely;
// otherwise Drop and Dup are independent probabilities and Delay is
// added to the modeled link delay.
type FaultRule struct {
	Drop  float64
	Dup   float64
	Delay sim.Time
	Sever bool
}

// Network hosts simulated nodes. Not safe for concurrent use: everything
// runs on the engine's single logical thread.
type Network struct {
	eng    *sim.Engine
	r      *rng.Rand
	cfg    Config
	nodes  map[env.NodeID]*node
	next   env.NodeID
	stats  Stats
	faults env.PairRules[FaultRule] // nil until a rule is installed, and again after ClearFaults
	faultR *rng.Rand                // rolls for installed rules; split lazily so fault-free runs draw identically
}

// node is the per-actor runtime state.
type node struct {
	net   *Network
	id    env.NodeID
	actor env.Actor
	r     *rng.Rand
	alive bool
}

// New creates a network on the given engine. r seeds per-node random
// streams; cfg tunes the link model.
func New(eng *sim.Engine, r *rng.Rand, cfg Config) *Network {
	return &Network{
		eng:   eng,
		r:     r,
		cfg:   cfg,
		nodes: make(map[env.NodeID]*node),
	}
}

// Engine exposes the underlying event engine (for workload drivers).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Stats returns a copy of the accumulated counters.
func (n *Network) Stats() Stats {
	cp := n.stats
	cp.PerType = make(map[string]uint64, len(n.stats.PerType))
	for k, v := range n.stats.PerType {
		cp.PerType[k] = v
	}
	cp.PerNode = make(map[env.NodeID]uint64, len(n.stats.PerNode))
	for k, v := range n.stats.PerNode {
		cp.PerNode[k] = v
	}
	return cp
}

// MaxPerNode returns the highest delivered-message count of any single
// node — the control-plane hotspot the paper's §1(a) centralization
// critique is about.
func (s Stats) MaxPerNode() uint64 {
	var max uint64
	for _, v := range s.PerNode { //lint:maporder commutative — max fold; the result is independent of visit order
		if v > max {
			max = v
		}
	}
	return max
}

// SetFault installs (or, with a zero rule, removes) a fault rule for
// the directed pair from→to. env.NoNode acts as a wildcard on either
// side; the most specific installed rule wins, in the same precedence
// order as the live injector: (from,to), then (from,*), then (*,to),
// then (*,*). Rolls draw from a dedicated stream split from the network
// generator on first installation, so runs that never install a rule
// see exactly the draws they always did.
func (n *Network) SetFault(from, to env.NodeID, rule FaultRule) {
	if n.faults == nil {
		if rule == (FaultRule{}) {
			return
		}
		n.faults = env.PairRules[FaultRule]{}
		n.faultR = n.r.Split()
	}
	n.faults.Set(from, to, rule)
}

// Sever blackholes both directions between a and b (use env.NoNode to
// cut a node off from everyone).
func (n *Network) Sever(a, b env.NodeID) {
	n.SetFault(a, b, FaultRule{Sever: true})
	n.SetFault(b, a, FaultRule{Sever: true})
}

// Heal removes the fault rules between a pair in both directions.
func (n *Network) Heal(a, b env.NodeID) {
	n.SetFault(a, b, FaultRule{})
	n.SetFault(b, a, FaultRule{})
}

// ClearFaults removes every installed fault rule atomically and reports
// how many were cleared — the "heal everything" call a finished chaos
// block uses to restore the fleet.
func (n *Network) ClearFaults() int {
	cleared := len(n.faults)
	n.faults = nil
	return cleared
}

// FaultRuleCount reports how many fault rules are installed.
func (n *Network) FaultRuleCount() int { return len(n.faults) }

// AddNode registers an actor, assigns it the next NodeID, and schedules
// its Init at the current time. It returns the assigned ID.
func (n *Network) AddNode(a env.Actor) env.NodeID {
	id := n.next
	n.next++
	nd := &node{net: n, id: id, actor: a, r: n.r.Split(), alive: true}
	n.nodes[id] = nd
	n.eng.After(0, func() {
		if nd.alive {
			a.Init(nd)
		}
	})
	return id
}

// Alive reports whether the node exists and has not crashed or stopped.
func (n *Network) Alive(id env.NodeID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.alive
}

// NumAlive counts live nodes.
func (n *Network) NumAlive() int {
	c := 0
	for _, nd := range n.nodes {
		if nd.alive {
			c++
		}
	}
	return c
}

// Crash kills a node silently: no Stop call, all its pending timers are
// suppressed, and in-flight messages to it are dropped on delivery —
// modeling §4.1's "peers may disconnect ... due to a failure".
func (n *Network) Crash(id env.NodeID) {
	if nd, ok := n.nodes[id]; ok {
		nd.alive = false
	}
}

// Stop shuts a node down gracefully: the actor's Stop hook runs first
// (letting it send departure notices), then the node goes silent.
func (n *Network) Stop(id env.NodeID) {
	nd, ok := n.nodes[id]
	if !ok || !nd.alive {
		return
	}
	nd.actor.Stop()
	nd.alive = false
}

// Actor returns the actor registered under id (for test assertions).
func (n *Network) Actor(id env.NodeID) env.Actor {
	if nd, ok := n.nodes[id]; ok {
		return nd.actor
	}
	return nil
}

// deliver routes m from src to dst: the installed fault rule (if any)
// is rolled first, then each surviving copy traverses the modeled link.
func (n *Network) deliver(src, dst env.NodeID, m env.Message) {
	var extra sim.Time
	dup := false
	if rule, ok := n.faults.Lookup(src, dst); ok {
		// Mirror live.FaultInjector.decide: sever and drop preempt the
		// other impairments; dup rolls only on surviving messages.
		if rule.Sever || (rule.Drop > 0 && n.faultR.Bool(rule.Drop)) {
			n.accountSend(m)
			n.stats.FaultDrops++
			return
		}
		dup = rule.Dup > 0 && n.faultR.Bool(rule.Dup)
		if rule.Delay > 0 {
			n.stats.FaultDelay++
			extra = rule.Delay
		}
	}
	n.transmit(src, dst, m, extra)
	if dup {
		// The duplicate is a real second transmission: it pays its own
		// loss roll, jitter and serialization delay.
		n.stats.FaultDups++
		n.transmit(src, dst, m, extra)
	}
}

// accountSend counts one transmission attempt.
func (n *Network) accountSend(m env.Message) float64 {
	n.stats.Sent++
	if n.stats.PerType == nil {
		n.stats.PerType = make(map[string]uint64)
	}
	n.stats.PerType[typeName(m)]++
	var kb float64
	if s, ok := m.(env.Sized); ok {
		kb = s.SizeKB()
	}
	n.stats.KBytes += kb
	return kb
}

// transmit sends one copy of m across the modeled link, extra being
// fault-injected delay added on top of the link model.
func (n *Network) transmit(src, dst env.NodeID, m env.Message, extra sim.Time) {
	kb := n.accountSend(m)

	if n.cfg.LossRate > 0 && n.r.Bool(n.cfg.LossRate) {
		n.stats.Dropped++
		return
	}
	delay := extra
	if n.cfg.Latency != nil && src != dst {
		d := n.cfg.Latency(src, dst)
		if n.cfg.JitterFrac > 0 {
			d += sim.Time(n.r.Uniform(0, n.cfg.JitterFrac) * float64(d))
		}
		delay += d
	}
	if kb > 0 && n.cfg.BandwidthKbps != nil {
		if bw := n.cfg.BandwidthKbps(src, dst); bw > 0 {
			delay += sim.Time(kb * 8 / bw * 1e6) // Kb over Kbps, in µs
		}
	}
	n.eng.After(delay, func() {
		rcv, ok := n.nodes[dst]
		if !ok || !rcv.alive {
			n.stats.Dropped++
			return
		}
		n.stats.Delivered++
		if n.stats.PerNode == nil {
			n.stats.PerNode = make(map[env.NodeID]uint64)
		}
		n.stats.PerNode[dst]++
		rcv.actor.Receive(src, m)
	})
}

// typeName renders a message's type without the package path.
func typeName(m env.Message) string {
	s := fmt.Sprintf("%T", m)
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// --- env.Context implementation (per node) ---

// Self implements env.Context.
func (nd *node) Self() env.NodeID { return nd.id }

// Now implements env.Clock.
func (nd *node) Now() sim.Time { return nd.net.eng.Now() }

// After implements env.Clock; callbacks are suppressed once the node is
// dead so crashes cancel all of a node's timers at once.
func (nd *node) After(d sim.Time, fn func()) env.Cancel {
	h := nd.net.eng.After(d, func() {
		if nd.alive {
			fn()
		}
	})
	return h.Cancel
}

// Send implements env.Context.
func (nd *node) Send(to env.NodeID, m env.Message) {
	if !nd.alive {
		return
	}
	nd.net.deliver(nd.id, to, m)
}

// Rand implements env.Context.
func (nd *node) Rand() *rng.Rand { return nd.r }

// Logf implements env.Context.
func (nd *node) Logf(format string, args ...any) {
	if nd.net.cfg.Trace == nil {
		return
	}
	nd.net.cfg.Trace(fmt.Sprintf("[%v n%d] %s", nd.net.eng.Now(), nd.id, fmt.Sprintf(format, args...)))
}

// TypeCounts renders the per-type counters sorted by name (stable output
// for experiment tables).
func (s Stats) TypeCounts() string {
	keys := make([]string, 0, len(s.PerType))
	for k := range s.PerType { //lint:maporder commutative — keys are sorted below before rendering
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, s.PerType[k])
	}
	return b.String()
}
