// Package live is the real-time runtime: the same node.Peer actors that
// run under simulation execute here as goroutines with serialized
// mailboxes, real timers, and a pluggable transport — in-process channels
// within one process, TCP carrying internal/proto codec frames across
// processes (see tcp.go and wire.go). This is the deployable middleware,
// not a second implementation: protocol logic lives only in
// internal/core.
//
// # Flight recording
//
// A Recorder (see record.go and internal/replay) can be attached to the
// runtime to log every nondeterministic input a node observes — message
// deliveries, timer firings, named calls, start/stop/kill, RNG seeds —
// so a live run can be re-executed bit-for-bit on the deterministic sim
// scheduler. The hooks live at the points where nondeterminism is
// resolved: the mailbox dequeue in loop (delivery order), After (timer
// identity), and AddNodeWithID (seed assignment). Each envelope latches
// the node clock once at dispatch, so every read of Now within one
// handler returns the same value — the value the recorder logs.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/rng"
	"repro/internal/sim"
)

// MailboxDepth bounds each node's queue; sends to a full mailbox are
// dropped (the transport is best-effort, like the simulated one).
const MailboxDepth = 4096

// infraStream labels the rng substream feeding infrastructure randomness
// (transport supervisor jitter, fault-injector rolls). Deriving it with
// rng.Derive keeps those draws off the node-seed Split chain, so node k's
// seed is rng.SplitSeed(runtimeSeed, k) regardless of transport activity
// — the invariant recorded logs rely on.
const infraStream = 0x696e667261 // "infra"

// envelope is one unit of mailbox work: a message, a timer firing, or a
// (possibly named) closure.
type envelope struct {
	from env.NodeID
	msg  env.Message
	fn   func()
	t    *timerRec
	call *callRec
}

// timerRec identifies one pending timer. IDs are per-node and monotone
// in creation order, which is deterministic under replay; the recorder
// logs the ID and logical deadline of every firing.
type timerRec struct {
	id        uint64
	deadline  int64 // latched micros the timer was aimed at
	fn        func()
	cancelled atomic.Bool
}

// callRec names an externally injected closure so the recorder can log
// it and a replay harness can re-invoke the equivalent operation.
type callRec struct {
	name string
	arg  []byte
}

// Runtime hosts live nodes within one process.
type Runtime struct {
	start     time.Time
	startNano int64 // Nanotime at creation; nowMicros is relative to it

	mu     sync.Mutex
	nodes  map[env.NodeID]*liveNode // guarded by mu
	nextID env.NodeID               // guarded by mu
	seed   *rng.Rand                // node-seed stream; guarded by mu
	infra  *rng.Rand                // infrastructure stream; guarded by mu

	// remote, when set, carries messages addressed to nodes not hosted
	// here (the TCP transport).
	remote func(from, to env.NodeID, m env.Message) error // guarded by mu

	// Logger receives node Logf output as structured logfmt lines
	// (see logger.go); nil silences it.
	Logger *Logger

	// faults, when set, impairs in-process deliveries (drop, delay,
	// duplicate, sever) — the live mirror of netsim's loss knobs. The
	// TCP transport consults the same injector for outbound traffic.
	faults atomic.Pointer[FaultInjector]

	// rec, when set, receives every nondeterministic input (see
	// SetRecorder).
	rec atomic.Pointer[recState]

	// recCtl, when set, lets the /record diagnostics endpoint start and
	// stop recording (the facade that owns recorder lifecycle installs
	// itself here).
	recCtl atomic.Pointer[RecordControl]

	dropped atomic.Uint64
}

// NewRuntime creates an empty live runtime.
func NewRuntime(seed uint64) *Runtime {
	return &Runtime{
		start:     time.Now(),
		startNano: Nanotime(),
		nodes:     make(map[env.NodeID]*liveNode),
		seed:      rng.New(seed),
		infra:     rng.New(rng.Derive(seed, infraStream)),
	}
}

// liveNode is one hosted actor.
type liveNode struct {
	rt      *Runtime
	id      env.NodeID
	actor   env.Actor
	seed    uint64 // initial rng state, logged by the recorder
	mailbox chan envelope
	quit    chan struct{}
	done    chan struct{}
	r       *rng.Rand
	stopped atomic.Bool
	killed  atomic.Bool

	// Loop-confined state: written and read only on the node's own
	// event-loop goroutine (no lock needed, like actor state).
	now      int64 // latched clock for the envelope being dispatched
	timerSeq uint64
	recN     int // envelopes dispatched since the last digest record
}

// AddNode hosts an actor under the next free ID and starts its loop.
func (rt *Runtime) AddNode(a env.Actor) env.NodeID {
	rt.mu.Lock()
	id := rt.nextID
	rt.nextID++
	rt.mu.Unlock()
	rt.AddNodeWithID(id, a)
	return id
}

// AddNodeWithID hosts an actor under a caller-chosen ID (distributed
// deployments assign global IDs in their address book). It panics if the
// ID is taken.
func (rt *Runtime) AddNodeWithID(id env.NodeID, a env.Actor) {
	rt.mu.Lock()
	if _, dup := rt.nodes[id]; dup {
		rt.mu.Unlock()
		panic(fmt.Sprintf("live: node ID %d already hosted", id))
	}
	r := rt.seed.Split()
	n := &liveNode{
		rt:      rt,
		id:      id,
		actor:   a,
		seed:    r.State(),
		mailbox: make(chan envelope, MailboxDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		r:       r,
	}
	rt.nodes[id] = n
	if id >= rt.nextID {
		rt.nextID = id + 1
	}
	rt.mu.Unlock()
	go n.loop()
}

// node returns a hosted node.
func (rt *Runtime) node(id env.NodeID) *liveNode {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.nodes[id]
}

// Stop shuts one node down gracefully and waits for its loop to exit.
func (rt *Runtime) Stop(id env.NodeID) {
	n := rt.node(id)
	if n == nil || !n.stopped.CompareAndSwap(false, true) {
		return
	}
	close(n.quit)
	<-n.done
	if rs := rt.recState(); rs != nil {
		d, ok := digestOf(n.actor)
		rs.rec.RecordStop(id, rt.nowMicros(), d, ok)
	}
	rt.mu.Lock()
	delete(rt.nodes, id)
	rt.mu.Unlock()
}

// Kill terminates a node abruptly: no Stop hook runs, mirroring
// netsim.Crash. Pending mailbox work is discarded.
func (rt *Runtime) Kill(id env.NodeID) {
	n := rt.node(id)
	if n == nil {
		return
	}
	n.killed.Store(true)
	if !n.stopped.CompareAndSwap(false, true) {
		return
	}
	close(n.quit)
	<-n.done
	if rs := rt.recState(); rs != nil {
		d, ok := digestOf(n.actor)
		rs.rec.RecordKill(id, rt.nowMicros(), d, ok)
	}
	rt.mu.Lock()
	delete(rt.nodes, id)
	rt.mu.Unlock()
}

// Shutdown stops every hosted node.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	ids := make([]env.NodeID, 0, len(rt.nodes))
	for id := range rt.nodes {
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	for _, id := range ids {
		rt.Stop(id)
	}
}

// Dropped reports messages discarded by the runtime: full mailboxes,
// sends without a route, and injections for un-hosted node IDs.
func (rt *Runtime) Dropped() uint64 { return rt.dropped.Load() }

// SetFaultInjector installs (or, with nil, removes) the fault-injection
// layer for in-process deliveries and the attached transport.
func (rt *Runtime) SetFaultInjector(fi *FaultInjector) { rt.faults.Store(fi) }

// FaultInjector returns the installed fault injector, nil when none.
func (rt *Runtime) FaultInjector() *FaultInjector { return rt.faults.Load() }

// EnsureFaultInjector returns the installed fault injector, creating
// one (seeded from the runtime's rng stream) on first use — the /faults
// diagnostics endpoint activates injection this way.
func (rt *Runtime) EnsureFaultInjector() *FaultInjector {
	if fi := rt.faults.Load(); fi != nil {
		return fi
	}
	fi := NewFaultInjector(rt.splitRand())
	if rt.faults.CompareAndSwap(nil, fi) {
		return fi
	}
	return rt.faults.Load()
}

// splitRand derives an independent rng stream from the runtime's
// infrastructure seed (transport supervisors and the fault injector draw
// jitter from it). Infrastructure draws never touch the node-seed
// stream, so recorded node seeds are independent of transport activity.
func (rt *Runtime) splitRand() *rng.Rand {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.infra.Split()
}

// nowMicros is elapsed monotonic time since the runtime started, in the
// microsecond unit trace events use. It reads the injectable Nanotime
// accessor, never the wall clock directly (replay:recorded).
func (rt *Runtime) nowMicros() int64 {
	return (Nanotime() - rt.startNano) / 1000
}

// NowMicros exposes the runtime clock to the facade, which must query
// windowed sketches on the same clock their samples are stamped with.
func (rt *Runtime) NowMicros() int64 { return rt.nowMicros() }

// NodeCount reports how many nodes are currently hosted.
func (rt *Runtime) NodeCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.nodes)
}

// Uptime reports how long the runtime has been running.
func (rt *Runtime) Uptime() time.Duration { return time.Since(rt.start) }

// epoch anchors Nanotime; only differences are meaningful.
var epoch = time.Now()

// Nanotime returns the real monotonic clock in nanoseconds. Live
// deployments inject it as core.Config.Nanotime so allocator costing
// (Events.AllocNanos) reflects actual CPU time; the simulation leaves
// the hook nil and stays on the virtual clock. It is the sanctioned
// clock accessor on recorded delivery paths (see the replaysafe
// analyzer in cmd/p2plint).
func Nanotime() int64 { return time.Since(epoch).Nanoseconds() }

// Inject delivers a message to a hosted node from the outside world (the
// TCP listener and tests use this). Messages addressed to node IDs not
// hosted here are counted as dropped, not silently discarded: a stale
// address-book entry or a just-stopped node shows up in Dropped and
// /healthz instead of vanishing (replay:recorded).
func (rt *Runtime) Inject(from, to env.NodeID, m env.Message) {
	n := rt.node(to)
	if n == nil {
		rt.dropped.Add(1)
		return
	}
	n.enqueue(envelope{from: from, msg: m})
}

// Call runs fn on the node's event loop and waits for it to finish —
// the safe way for external code (CLIs, tests) to touch actor state.
// The closure is invisible to the flight recorder: on recorded runs,
// operations that mutate actor state must come through CallNamed so a
// replay harness can re-invoke them; read-only Calls are fine.
func (rt *Runtime) Call(id env.NodeID, fn func()) bool {
	n := rt.node(id)
	if n == nil {
		return false
	}
	doneCh := make(chan struct{})
	n.enqueue(envelope{fn: func() {
		fn()
		close(doneCh)
	}})
	select {
	case <-doneCh:
		return true
	case <-n.done:
		return false
	}
}

// CallNamed runs fn on the node's event loop like Call, additionally
// logging the operation under name with an opaque argument blob when a
// recorder is attached. A replay harness maps the name back to the
// equivalent operation (e.g. "submit" -> Peer.SubmitTask with the spec
// decoded from a codec-encoded TaskSubmit) and re-invokes it at the
// recorded point.
func (rt *Runtime) CallNamed(id env.NodeID, name string, arg []byte, fn func()) bool {
	n := rt.node(id)
	if n == nil {
		return false
	}
	doneCh := make(chan struct{})
	n.enqueue(envelope{call: &callRec{name: name, arg: arg}, fn: func() {
		fn()
		close(doneCh)
	}})
	select {
	case <-doneCh:
		return true
	case <-n.done:
		return false
	}
}

// enqueue adds work, dropping when the mailbox is full.
func (n *liveNode) enqueue(e envelope) {
	select {
	case n.mailbox <- e:
	default:
		n.rt.dropped.Add(1)
	}
}

// latch pins the node clock for the envelope about to be dispatched.
// Every Now read within one handler returns this value — the value the
// recorder logs, and the virtual time the replayer re-executes at.
func (n *liveNode) latch() { n.now = n.rt.nowMicros() }

// loop is the node's serialized executor and the recorder's main hook
// point: nondeterministic arrival order becomes deterministic dispatch
// order here, so this is where deliveries, timer firings and named calls
// are logged (replay:recorded).
func (n *liveNode) loop() {
	defer close(n.done)
	n.latch()
	if rs := n.rt.recState(); rs != nil {
		rs.rec.RecordStart(n.id, n.now, n.seed, replayInitOf(n.actor))
	}
	n.actor.Init(n)
	for {
		select {
		case <-n.quit:
			if !n.killed.Load() {
				n.actor.Stop()
			}
			return
		case e := <-n.mailbox:
			n.latch()
			rs := n.rt.recState()
			switch {
			case e.t != nil:
				// The cancelled check must precede the record: a timer
				// cancelled after its envelope was enqueued fires
				// nothing, and the log must reflect that.
				if e.t.cancelled.Load() {
					continue
				}
				if rs != nil {
					rs.rec.RecordTimer(n.id, n.now, e.t.id, e.t.deadline)
				}
				e.t.fn()
			case e.call != nil:
				if rs != nil {
					rs.rec.RecordCall(n.id, n.now, e.call.name, e.call.arg)
				}
				e.fn()
			case e.fn != nil:
				e.fn() // plain Call: read-only by contract, not recorded
			default:
				if rs != nil {
					rs.rec.RecordDeliver(n.id, e.from, n.now, e.msg)
				}
				n.actor.Receive(e.from, e.msg)
			}
			if rs != nil && (e.fn == nil || e.call != nil) {
				n.maybeDigest(rs)
			}
		}
	}
}

// maybeDigest logs a state digest every digestEvery recorded envelopes,
// giving the replayer periodic divergence checkpoints.
func (n *liveNode) maybeDigest(rs *recState) {
	n.recN++
	if rs.digestEvery <= 0 || n.recN%rs.digestEvery != 0 {
		return
	}
	if d, ok := digestOf(n.actor); ok {
		rs.rec.RecordDigest(n.id, n.now, d)
	}
}

// --- env.Context implementation ---

// Self implements env.Context.
func (n *liveNode) Self() env.NodeID { return n.id }

// Now implements env.Clock: the clock latched when the current envelope
// was dispatched, in the same sim.Time microsecond unit the protocol
// logic uses. Latching makes a handler's view of time a recorded input:
// replay re-executes the handler at exactly this virtual instant
// (replay:recorded).
func (n *liveNode) Now() sim.Time {
	return sim.Time(n.now)
}

// After implements env.Clock: real timer whose callback is serialized
// through the mailbox. Timers get per-node IDs, monotone in creation
// order; the recorder logs the ID and logical deadline of each firing so
// replay fires exactly the timers that fired live (replay:recorded).
func (n *liveNode) After(d sim.Time, fn func()) env.Cancel {
	n.timerSeq++
	rec := &timerRec{id: n.timerSeq, deadline: n.now + int64(d), fn: fn}
	t := time.AfterFunc(time.Duration(d)*time.Microsecond, func() {
		if rec.cancelled.Load() || n.stopped.Load() {
			return
		}
		n.enqueue(envelope{t: rec})
	})
	return env.NewCancel(func(uint64) bool {
		first := rec.cancelled.CompareAndSwap(false, true)
		t.Stop()
		return first
	}, 0)
}

// Send implements env.Context: local nodes get direct mailbox delivery,
// unknown IDs go to the remote transport if one is attached. Sends are
// a node's observable output: the recorder logs (to, type) so the
// replayer can compare the replayed send sequence against the live one
// (replay:recorded).
func (n *liveNode) Send(to env.NodeID, m env.Message) {
	if n.stopped.Load() {
		return
	}
	if rs := n.rt.recState(); rs != nil {
		rs.rec.RecordSend(n.id, to, n.now, m)
	}
	if dst := n.rt.node(to); dst != nil {
		n.rt.deliverLocal(n.id, to, dst, m)
		return
	}
	n.rt.mu.Lock()
	remote := n.rt.remote
	n.rt.mu.Unlock()
	if remote != nil {
		if err := remote(n.id, to, m); err != nil {
			n.rt.dropped.Add(1)
		}
	} else {
		n.rt.dropped.Add(1)
	}
}

// Rand implements env.Context.
func (n *liveNode) Rand() *rng.Rand { return n.r }

// deliverLocal enqueues m onto dst's mailbox, applying the in-process
// fault-injection hook (the Runtime-level mirror of the transport's):
// severed or dropped pairs lose the message, delayed ones re-enter
// through a timer, duplicated ones enqueue twice (replay:recorded).
func (rt *Runtime) deliverLocal(from, to env.NodeID, dst *liveNode, m env.Message) {
	fi := rt.FaultInjector()
	if fi == nil {
		dst.enqueue(envelope{from: from, msg: m})
		return
	}
	d := fi.decide(from, to)
	rt.recordFault(from, to, d)
	if d.drop {
		return
	}
	copies := 1
	if d.dup {
		copies = 2
	}
	if d.delay <= 0 {
		for i := 0; i < copies; i++ {
			dst.enqueue(envelope{from: from, msg: m})
		}
		return
	}
	time.AfterFunc(d.delay, func() {
		// Re-resolve: the destination may have stopped while the
		// message was in flight (delayed delivery mirrors a real link).
		cur := rt.node(to)
		if cur == nil {
			rt.dropped.Add(1)
			return
		}
		for i := 0; i < copies; i++ {
			cur.enqueue(envelope{from: from, msg: m})
		}
	})
}

// recordFault logs a non-trivial fault-injector decision. Informational
// for replay correctness — deliveries are recorded after impairment, at
// dispatch — but it pins down *why* a message is missing from a log.
func (rt *Runtime) recordFault(from, to env.NodeID, d faultDecision) {
	if !d.drop && !d.dup && d.delay <= 0 {
		return
	}
	if rs := rt.recState(); rs != nil {
		rs.rec.RecordFault(from, to, rt.nowMicros(), d.drop, d.dup,
			int64(d.delay/time.Microsecond))
	}
}
