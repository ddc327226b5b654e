package replay

import (
	"fmt"
	"sort"

	"repro/internal/env"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Options configures a replay run.
type Options struct {
	// Factory rebuilds the actor for a node from its recorded KStart
	// blob (the bytes the live actor's ReplayInit returned, nil when the
	// actor implemented none). Required.
	Factory func(node env.NodeID, init []byte) (env.Actor, error)
	// Call re-executes a recorded named call (see the live runtime's
	// CallNamed) against the rebuilt actor. Optional: with no handler,
	// any KCall event in the log is reported as a divergence.
	Call func(a env.Actor, name string, arg []byte) error
	// Logf receives actor diagnostics (ctx.Logf). Optional.
	Logf func(format string, args ...any)
}

// Divergence pinpoints the first event where the replayed run stopped
// matching the recording.
type Divergence struct {
	Node   env.NodeID `json:"node"`
	Time   sim.Time   `json:"time_micros"`
	Index  int        `json:"event_index"` // index into the log's event list
	Kind   string     `json:"kind"`
	Detail string     `json:"detail"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("divergence at node %d, t=%v, event %d (%s): %s",
		d.Node, d.Time, d.Index, d.Kind, d.Detail)
}

// Result summarizes a replay run.
type Result struct {
	Events  int // log events executed or compared
	Nodes   int // nodes reconstructed from KStart events
	Sends   int // outbound sends compared against the recording
	Digests int // state-digest checkpoints compared
	Faults  int // informational fault events in the log
	// Truncated mirrors Log.Truncated: the recording ended mid-frame and
	// only its complete prefix was replayed.
	Truncated bool
	// Diverged is nil when the replay matched the recording end to end.
	Diverged *Divergence
	// FinalDigests holds the last observed state digest per node, for
	// callers that want to assert on protocol state beyond "no
	// divergence".
	FinalDigests map[env.NodeID]uint64
}

// replayer re-executes a recorded log on a deterministic sim engine.
type replayer struct {
	eng   *sim.Engine
	opts  Options
	res   *Result
	nodes map[env.NodeID]*replayNode
}

// sendRec is one recorded outbound send awaiting comparison.
type sendRec struct {
	to    env.NodeID
	typ   string
	index int // log event index, for divergence reports
}

// replayTimer is a timer the replayed actor registered via After.
type replayTimer struct {
	fn        func()
	deadline  sim.Time
	cancelled bool
	fired     bool
}

// replayNode is one reconstructed node; it implements env.Context for
// its actor exactly like a live or netsim node does.
type replayNode struct {
	rp       *replayer
	id       env.NodeID
	actor    env.Actor
	r        *rng.Rand
	timerSeq uint64
	timers   map[uint64]*replayTimer
	expected []sendRec // recorded sends, consumed in order
	sendIdx  int
	curIndex int // log index of the input event currently executing
	started  bool
	stopping bool // inside the Stop hook: sends are suppressed, like live
	stopped  bool
}

// Now implements env.Clock with the engine's virtual clock; every input
// event is scheduled at its recorded latched time, so handlers observe
// the same timestamps they saw live.
func (n *replayNode) Now() sim.Time { return n.rp.eng.Now() }

// After implements env.Clock. Timers are not scheduled on the engine:
// the recording says exactly which timers fired and when (KTimer events
// carry the per-node timer ID), so After only registers the callback
// under the next monotone ID — the same assignment order the live
// runtime used, which is what makes the IDs line up.
func (n *replayNode) After(d sim.Time, fn func()) env.Cancel {
	if d < 0 {
		d = 0
	}
	n.timerSeq++
	t := &replayTimer{fn: fn, deadline: n.rp.eng.Now() + d}
	n.timers[n.timerSeq] = t
	id := n.timerSeq
	return env.NewCancel(func(uint64) bool {
		if t.cancelled || t.fired {
			return false
		}
		t.cancelled = true
		delete(n.timers, id)
		return true
	}, 0)
}

// Self implements env.Context.
func (n *replayNode) Self() env.NodeID { return n.id }

// Rand implements env.Context, resuming the node's recorded stream.
func (n *replayNode) Rand() *rng.Rand { return n.r }

// Logf implements env.Context.
func (n *replayNode) Logf(format string, args ...any) {
	if n.rp.opts.Logf != nil {
		n.rp.opts.Logf("[replay n%d %v] "+format,
			append([]any{int(n.id), n.rp.eng.Now()}, args...)...)
	}
}

// Send implements env.Context by comparing the send against the
// recording instead of routing it: deliveries come from the log, so
// replayed sends are observable outputs only. Comparison is by
// (destination, concrete type); see MessageType.
func (n *replayNode) Send(to env.NodeID, m env.Message) {
	rp := n.rp
	if n.stopping {
		// The live runtime flips the node's stopped flag before running
		// the Stop hook, so Stop-time sends never leave the node (or reach
		// the recorder). Mirror that: don't compare, don't count.
		return
	}
	if rp.res.Diverged != nil {
		return
	}
	rp.res.Sends++
	if n.sendIdx >= len(n.expected) {
		rp.diverge(n.id, n.curIndex, "extra-send",
			fmt.Sprintf("replay sent %s to node %d but the recording has no further sends from node %d",
				MessageType(m), to, n.id))
		return
	}
	exp := n.expected[n.sendIdx]
	n.sendIdx++
	if exp.to != to || exp.typ != MessageType(m) {
		rp.diverge(n.id, exp.index, "send-mismatch",
			fmt.Sprintf("replay sent %s to node %d where the recording has %s to node %d",
				MessageType(m), to, exp.typ, exp.to))
	}
}

// digester mirrors the live runtime's Digester without importing it.
type digester interface{ StateDigest() uint64 }

// diverge records the first divergence and halts the engine. Later
// mismatches are suppressed: everything after the first divergence is
// expected to cascade.
// sortedNodeIDs returns the replayer's node IDs in ascending order.
func (rp *replayer) sortedNodeIDs() []env.NodeID {
	ids := make([]env.NodeID, 0, len(rp.nodes))
	for id := range rp.nodes { //lint:maporder commutative — ids are sorted below before any use
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (rp *replayer) diverge(node env.NodeID, index int, kind, detail string) {
	if rp.res.Diverged != nil {
		return
	}
	rp.res.Diverged = &Divergence{
		Node: node, Time: rp.eng.Now(), Index: index, Kind: kind, Detail: detail,
	}
	rp.eng.Halt()
}

// node returns the replayNode for id, or reports a divergence when the
// log references a node that never started (or already stopped).
func (rp *replayer) node(id env.NodeID, index int, kind Kind) *replayNode {
	n := rp.nodes[id]
	if n == nil || !n.started {
		rp.diverge(id, index, "unknown-node",
			fmt.Sprintf("log has a %v event for node %d before any start event", kind, id))
		return nil
	}
	if n.stopped {
		rp.diverge(id, index, "stopped-node",
			fmt.Sprintf("log has a %v event for node %d after its stop/kill", kind, id))
		return nil
	}
	return n
}

// checkDigest compares a recorded digest checkpoint with the rebuilt
// actor's current state hash.
func (rp *replayer) checkDigest(n *replayNode, index int, want uint64, when string) {
	d, ok := n.actor.(digester)
	if !ok {
		rp.diverge(n.id, index, "digest-unavailable",
			fmt.Sprintf("recording has a %s digest but the rebuilt actor (%T) has no StateDigest", when, n.actor))
		return
	}
	got := d.StateDigest()
	rp.res.Digests++
	rp.res.FinalDigests[n.id] = got
	if got != want {
		rp.diverge(n.id, index, "digest-mismatch",
			fmt.Sprintf("%s state digest %#x, recording says %#x", when, got, want))
	}
}

// exec runs one log event. idx is the event's index in the log.
func (rp *replayer) exec(idx int, e *Event) {
	if rp.res.Diverged != nil {
		return
	}
	rp.res.Events++
	id := env.NodeID(e.Node)
	switch e.Kind {
	case KStart:
		if prev := rp.nodes[id]; prev != nil && prev.started && !prev.stopped {
			rp.diverge(id, idx, "duplicate-start",
				fmt.Sprintf("node %d started twice without an intervening stop", id))
			return
		}
		actor, err := rp.opts.Factory(id, e.Data)
		if err != nil {
			rp.diverge(id, idx, "factory",
				fmt.Sprintf("rebuilding actor for node %d: %v", id, err))
			return
		}
		n := rp.nodes[id]
		if n == nil {
			n = &replayNode{rp: rp, id: id}
			rp.nodes[id] = n
		}
		n.actor = actor
		n.r = rng.New(e.Aux)
		n.timers = make(map[uint64]*replayTimer)
		n.timerSeq = 0
		n.started = true
		n.stopped = false
		n.curIndex = idx
		rp.res.Nodes++
		actor.Init(n)

	case KDeliver:
		n := rp.node(id, idx, e.Kind)
		if n == nil {
			return
		}
		m, err := e.Message()
		if err != nil {
			kind := "decode"
			if e.Aux == auxUnencodable {
				kind = "unencodable-payload"
			}
			rp.diverge(id, idx, kind, err.Error())
			return
		}
		n.curIndex = idx
		n.actor.Receive(env.NodeID(e.Peer), m)

	case KTimer:
		n := rp.node(id, idx, e.Kind)
		if n == nil {
			return
		}
		t := n.timers[e.Aux]
		if t == nil {
			rp.diverge(id, idx, "timer-missing",
				fmt.Sprintf("recording fired timer %d (deadline %dµs) but replay never armed it or already cancelled it", e.Aux, e.Aux2))
			return
		}
		if int64(t.deadline) != e.Aux2 {
			rp.diverge(id, idx, "timer-deadline",
				fmt.Sprintf("timer %d armed for %v in replay but %dµs in the recording", e.Aux, t.deadline, e.Aux2))
			return
		}
		t.fired = true
		delete(n.timers, e.Aux)
		n.curIndex = idx
		t.fn()

	case KCall:
		n := rp.node(id, idx, e.Kind)
		if n == nil {
			return
		}
		if rp.opts.Call == nil {
			rp.diverge(id, idx, "call-unhandled",
				fmt.Sprintf("recording has call %q but Options.Call is nil", e.Name))
			return
		}
		n.curIndex = idx
		if err := rp.opts.Call(n.actor, e.Name, e.Data); err != nil {
			rp.diverge(id, idx, "call",
				fmt.Sprintf("re-executing call %q: %v", e.Name, err))
		}

	case KStop, KKill:
		n := rp.node(id, idx, e.Kind)
		if n == nil {
			return
		}
		n.curIndex = idx
		if e.Kind == KStop {
			n.stopping = true
			n.actor.Stop()
		}
		if rp.res.Diverged == nil && n.sendIdx < len(n.expected) {
			exp := n.expected[n.sendIdx]
			rp.diverge(id, exp.index, "missing-send",
				fmt.Sprintf("recording has %d more sends from node %d (next: %s to node %d) that replay never produced",
					len(n.expected)-n.sendIdx, id, exp.typ, exp.to))
			return
		}
		if e.Aux2 == 1 {
			rp.checkDigest(n, idx, e.Aux, e.Kind.String())
		}
		n.stopped = true

	case KDigest:
		n := rp.node(id, idx, e.Kind)
		if n == nil {
			return
		}
		rp.checkDigest(n, idx, e.Aux, "checkpoint")

	case KFault:
		rp.res.Faults++ // informational: deliveries were recorded post-impairment

	case KSend:
		// Consumed up front into per-node expected queues; nothing to
		// execute at fire time.

	default:
		rp.diverge(id, idx, "unknown-kind",
			fmt.Sprintf("log contains unknown event kind %d", uint8(e.Kind)))
	}
}

// Replay re-executes lg on a fresh deterministic engine and reports the
// first divergence, if any. It never panics on a malformed log: bad
// events surface as divergences, and corrupted frames were already
// rejected by ReadLog.
func Replay(lg *Log, opts Options) (*Result, error) {
	if opts.Factory == nil {
		return nil, fmt.Errorf("replay: Options.Factory is required")
	}
	rp := &replayer{
		eng:   sim.New(),
		opts:  opts,
		res:   &Result{Truncated: lg.Truncated, FinalDigests: make(map[env.NodeID]uint64)},
		nodes: make(map[env.NodeID]*replayNode),
	}

	// Pre-pass: recorded sends become per-node expectation queues (file
	// order is per-node emission order) rather than engine events — the
	// replayed actor produces them mid-handler, before a same-timestamp
	// engine event could fire.
	for i := range lg.Events {
		e := &lg.Events[i]
		if e.Kind != KSend {
			continue
		}
		id := env.NodeID(e.Node)
		n := rp.nodes[id]
		if n == nil {
			n = &replayNode{rp: rp, id: id}
			rp.nodes[id] = n
		}
		n.expected = append(n.expected, sendRec{to: env.NodeID(e.Peer), typ: e.Name, index: i})
	}

	// Schedule every input event at its recorded time; ties fire in file
	// order (the engine breaks equal timestamps by scheduling sequence),
	// reproducing each node's recorded dispatch order exactly.
	for i := range lg.Events {
		e := &lg.Events[i]
		if e.Kind == KSend {
			rp.res.Events++ // compared via expectation queues
			continue
		}
		idx, ev := i, e
		at := sim.Time(ev.Time)
		if at < 0 {
			at = 0
		}
		rp.eng.At(at, func() { rp.exec(idx, ev) })
	}

	rp.eng.Run()

	// Nodes alive at end of recording: every recorded send must have
	// been reproduced. The scan stops at the first violation, so it must
	// visit nodes in ID order — otherwise which node gets reported (and
	// therefore the result) would follow map iteration order.
	if rp.res.Diverged == nil {
		for _, id := range rp.sortedNodeIDs() {
			n := rp.nodes[id]
			if !n.started || n.stopped || n.sendIdx >= len(n.expected) {
				continue
			}
			exp := n.expected[n.sendIdx]
			rp.diverge(n.id, exp.index, "missing-send",
				fmt.Sprintf("recording has %d more sends from node %d (next: %s to node %d) that replay never produced",
					len(n.expected)-n.sendIdx, n.id, exp.typ, exp.to))
			break
		}
	}

	// Final digests for nodes still running, for callers asserting on
	// end-state equality. StateDigest is a call into actor code; keep the
	// visit order deterministic.
	for _, id := range rp.sortedNodeIDs() {
		n := rp.nodes[id]
		if n.started && !n.stopped {
			if d, ok := n.actor.(digester); ok {
				rp.res.FinalDigests[n.id] = d.StateDigest()
			}
		}
	}
	return rp.res, nil
}

// ReplayDir reads the event log in a recording directory and replays it.
func ReplayDir(dir string, opts Options) (*Result, error) {
	lg, err := ReadLogDir(dir)
	if err != nil {
		return nil, err
	}
	return Replay(lg, opts)
}
