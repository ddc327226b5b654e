package live

// This file is the runtime side of the flight recorder: the Recorder
// interface the runtime logs nondeterministic inputs to, and the small
// control surface the /record diagnostics endpoint drives. The actual
// log format and the replayer live in internal/replay, which implements
// Recorder without this package importing it (no cycle: replay depends
// only on env/rng/sim/trace).

import (
	"sync"

	"repro/internal/env"
)

// Recorder receives every nondeterministic input the runtime resolves.
// Methods are called from node event-loop goroutines, inside the
// handler whose input or output they log (and Stop/Kill from whichever
// goroutine stops the node, strictly after the loop exited), so
// implementations must be safe for concurrent use. A call holds up the
// node loop for as long as it runs: implementations write synchronously
// and quickly, and must not call back into the runtime.
//
// nowMicros is the node clock latched for the event (see liveNode.latch);
// replay re-executes the event at exactly that virtual time.
type Recorder interface {
	// RecordStart logs a node coming up: its rng seed (the initial
	// stream state) and an opaque actor-reconstruction blob from
	// ReplayIniter, nil if the actor does not implement it.
	RecordStart(node env.NodeID, nowMicros int64, seed uint64, init []byte)
	// RecordDeliver logs one message dispatched to the node's actor,
	// in dispatch order — after fault impairment, mailbox loss and
	// transport reordering have all been resolved.
	RecordDeliver(node, from env.NodeID, nowMicros int64, m env.Message)
	// RecordTimer logs one timer callback actually firing, with the
	// per-node timer ID and the logical deadline it was aimed at.
	RecordTimer(node env.NodeID, nowMicros int64, timerID uint64, deadlineMicros int64)
	// RecordCall logs one named external operation (see CallNamed).
	RecordCall(node env.NodeID, nowMicros int64, name string, arg []byte)
	// RecordSend logs a node's outbound message — an observable output
	// the replayer compares, not an input it re-injects.
	RecordSend(node, to env.NodeID, nowMicros int64, m env.Message)
	// RecordStop/RecordKill log a node going down, with a final state
	// digest when the actor provides one.
	RecordStop(node env.NodeID, nowMicros int64, digest uint64, hasDigest bool)
	RecordKill(node env.NodeID, nowMicros int64, digest uint64, hasDigest bool)
	// RecordFault logs a non-trivial fault-injector decision
	// (informational: deliveries are recorded post-impairment).
	RecordFault(from, to env.NodeID, nowMicros int64, drop, dup bool, delayMicros int64)
	// RecordDigest logs a periodic state-digest checkpoint.
	RecordDigest(node env.NodeID, nowMicros int64, digest uint64)
}

// Digester is implemented by actors that can hash their protocol state
// deterministically (core.Peer does); the recorder logs these digests as
// divergence checkpoints.
type Digester interface {
	StateDigest() uint64
}

// ReplayIniter is implemented by actors that can serialize their
// construction parameters, letting a replay harness rebuild an
// equivalent actor from the log alone (core.Peer encodes its PeerInfo
// and bootstrap target).
type ReplayIniter interface {
	ReplayInit() []byte
}

// digestOf returns the actor's state digest when it implements Digester.
func digestOf(a env.Actor) (uint64, bool) {
	if d, ok := a.(Digester); ok {
		return d.StateDigest(), true
	}
	return 0, false
}

// replayInitOf returns the actor's reconstruction blob, nil when the
// actor does not implement ReplayIniter.
func replayInitOf(a env.Actor) []byte {
	if ri, ok := a.(ReplayIniter); ok {
		return ri.ReplayInit()
	}
	return nil
}

// digestEvery is the per-node interval, in recorded envelopes, between
// state-digest checkpoints.
const digestEvery = 8

// recState is one attached recorder and the cut that detaching it makes
// between handler executions. mu is read-held by every handler
// dispatched under rec, from its recorded input through its last Send;
// detaching write-locks it, waiting for those handlers, and a handler
// that locks it later finds detached set.
type recState struct {
	rec      Recorder
	mu       sync.RWMutex
	detached bool // guarded by mu
}

// SetRecorder attaches rec to the runtime (nil detaches). Attach before
// adding nodes: nodes hosted earlier have no RecordStart event, and a
// replay of such a log reports them as unknown instead of
// reconstructing them.
//
// Replacing or detaching a recorder cuts the recording between handler
// executions. A handler that started under the old recorder is logged
// to it completely, its input and all of its sends, and SetRecorder
// waits for it to return; a handler that starts later is not logged to
// it at all. The old recorder may be closed once SetRecorder returns.
// atCut, when non-nil, runs at the cut itself, while no handler runs,
// so state that handlers write (a session trace, say) can be captured
// consistent with the log. Only running handlers delay the cut; stopped
// nodes and queued mailbox work do not. Calling SetRecorder from a
// handler, or waiting for a node loop in atCut, deadlocks.
func (rt *Runtime) SetRecorder(rec Recorder, atCut func()) {
	rt.recSwap.Lock()
	defer rt.recSwap.Unlock()
	if old := rt.rec.Load(); old != nil {
		old.mu.Lock()
		defer old.mu.Unlock()
		old.detached = true
	}
	if rec == nil {
		rt.rec.Store(nil)
	} else {
		rt.rec.Store(&recState{rec: rec})
	}
	if atCut != nil {
		atCut()
	}
}

// enterRec read-locks and returns the attached recorder state for one
// handler execution (or a node's Stop/Kill record), nil when not
// recording. A state found detached was replaced after the load (the
// store precedes the unlock), so the load is retried. Release a non-nil
// result with rs.mu.RUnlock.
func (rt *Runtime) enterRec() *recState {
	for {
		rs := rt.rec.Load()
		if rs == nil {
			return nil
		}
		rs.mu.RLock()
		if !rs.detached {
			return rs
		}
		rs.mu.RUnlock()
	}
}

// RecordStatus describes the recording state for diagnostics.
type RecordStatus struct {
	Recording bool   `json:"recording"`
	Dir       string `json:"dir,omitempty"`
	Events    uint64 `json:"events"`
	Bytes     uint64 `json:"bytes"`
	// Dropped counts events that reached the recorder after it closed;
	// an open recorder writes every event.
	Dropped uint64 `json:"dropped"`
}

// RecordControl is the facade-level recorder lifecycle the /record
// endpoint drives: the facade (which owns recorder construction and the
// trace sink) implements it and installs itself with SetRecordControl.
type RecordControl interface {
	RecordStatus() RecordStatus
	Record(dir string) error
	StopRecord() error
}

// SetRecordControl installs the recorder lifecycle hook used by the
// /record diagnostics endpoint; nil removes it.
func (rt *Runtime) SetRecordControl(ctl RecordControl) {
	if ctl == nil {
		rt.recCtl.Store(nil)
		return
	}
	rt.recCtl.Store(&ctl)
}

// recordControl returns the installed lifecycle hook, nil when none.
func (rt *Runtime) recordControl() RecordControl {
	if p := rt.recCtl.Load(); p != nil {
		return *p
	}
	return nil
}
