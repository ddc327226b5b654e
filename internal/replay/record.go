package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/proto"
)

// MessageType names a message's concrete Go type. Sends are logged and
// compared by (destination, type name) only: that is enough to place a
// divergence, keeps send events small, and spares the writer an encode
// per send; payload-level drift surfaces at the next digest checkpoint.
func MessageType(m env.Message) string { return fmt.Sprintf("%T", m) }

// recorderQueueDepth bounds the in-flight event buffer between the node
// loops and the single writer goroutine. When the writer cannot keep up
// the recorder drops events (counted, surfaced in Meta and metrics)
// rather than stall the message hot path.
const recorderQueueDepth = 8192

// Meta is the recording metadata written alongside the event log.
type Meta struct {
	Format  string `json:"format"`
	Events  uint64 `json:"events"`
	Bytes   uint64 `json:"bytes"`
	Dropped uint64 `json:"dropped"`
	// TraceSeed is the seed the recorded run's tracer derived span IDs
	// from (trace.DeriveSpanID); the replayer seeds its tracer with the
	// same value so the replayed trace is byte-comparable. Zero for
	// recordings made before trace seeding existed — which is also the
	// unseeded tracer's seed, so the comparison still holds.
	TraceSeed uint64 `json:"trace_seed,omitempty"`
}

// ReadMeta parses the recording metadata in dir. A missing meta.json
// (crash before Close, or a foreign recording) returns the zero Meta
// without error — every field degrades gracefully.
func ReadMeta(dir string) (Meta, error) {
	var m Meta
	b, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		if os.IsNotExist(err) {
			return m, nil
		}
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// Recorder streams events to <dir>/events.bin. It implements the live
// runtime's Recorder interface structurally. Record* methods are safe
// for concurrent use and never block: the hot path only copies the
// event header and the message reference into a bounded channel; all
// encoding (codec payloads, type names, framing, CRC) happens on the
// single writer goroutine. Overflow increments Dropped instead of
// stalling callers.
//
// Handing messages over by reference is safe because messages are
// immutable once sent — the same invariant the runtimes already rely
// on: netsim and deliverLocal hand the identical value to the receiver
// while the sender may retain it, so no actor may mutate a message
// after sending or after receiving it.
type Recorder struct {
	dir string

	ch   chan pending
	done chan struct{}

	events    atomic.Uint64
	bytes     atomic.Uint64
	dropped   atomic.Uint64
	traceSeed atomic.Uint64

	mu     sync.Mutex
	closed bool
	werr   error // first writer error, surfaced from Close

	f  *os.File
	bw *bufio.Writer
}

// NewRecorder opens a recording directory (created if needed) and starts
// the writer goroutine. The caller must Close to flush the final frame.
func NewRecorder(dir string) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(logMagic); err != nil {
		f.Close()
		return nil, err
	}
	r := &Recorder{
		dir:  dir,
		ch:   make(chan pending, recorderQueueDepth),
		done: make(chan struct{}),
		f:    f,
		bw:   bw,
	}
	go r.writeLoop()
	return r, nil
}

// Dir returns the recording directory.
func (r *Recorder) Dir() string { return r.dir }

// SetTraceSeed records the tracer seed of the run being recorded; it is
// written into meta.json at Close for the replayer to adopt.
func (r *Recorder) SetTraceSeed(seed uint64) { r.traceSeed.Store(seed) }

// Counters returns (events enqueued, payload bytes written, events
// dropped) so far. Safe to call concurrently with recording; the byte
// count trails the event count by whatever the writer has queued.
func (r *Recorder) Counters() (events, bytes, dropped uint64) {
	return r.events.Load(), r.bytes.Load(), r.dropped.Load()
}

// pending is one hot-path handoff to the writer goroutine: the event
// header plus the message reference (deliveries and sends) whose
// expensive encoding the writer performs out of band.
type pending struct {
	e    Event
	m    env.Message
	stop bool
}

// writerPoll is how long the writer sleeps when its queue runs dry.
// Sleep-polling instead of blocking on the channel keeps the hot path
// free of goroutine wakeups: an emit into an empty queue would
// otherwise unpark the writer on the delivering node's loop, costing
// about a microsecond per recorded event at low rates. The queue
// absorbs pollInterval × message-rate events while the writer sleeps,
// far under recorderQueueDepth at any rate the writer can sustain.
const writerPoll = 100 * time.Microsecond

// writeLoop is the single writer goroutine; it owns all payload
// encoding and framing. The channel is never closed — Close enqueues a
// stop sentinel instead, so concurrent emit calls can never hit a
// closed channel; a late emit either lands after the sentinel (ignored)
// or takes the drop path once the queue fills.
func (r *Recorder) writeLoop() {
	defer close(r.done)
	var frame, payload []byte
	for {
		var p pending
		select {
		case p = <-r.ch:
		default:
			time.Sleep(writerPoll)
			continue
		}
		if p.stop {
			return
		}
		if r.werr != nil {
			continue // drain; error already latched
		}
		e := &p.e
		if p.m != nil {
			e.Name = MessageType(p.m)
			if e.Kind == KDeliver {
				// Each payload is a standalone internal/proto codec blob,
				// decodable on its own. A payload outside the codec's
				// message set degrades to a typed marker so replay reports
				// the gap instead of silently skipping it.
				if b, ok := proto.AppendMessage(payload[:0], p.m); ok {
					payload = b
					e.Aux = auxCodec
					e.Data = b
				} else {
					e.Aux = auxUnencodable
				}
			}
		}
		frame = marshalEvent(e, frame)
		if err := writeFrame(r.bw, frame); err != nil {
			r.werr = err
		}
		r.bytes.Add(uint64(8 + len(frame)))
	}
}

// emit enqueues one event for the writer. This is the entire hot-path
// cost of recording: a struct copy into the channel buffer and one
// atomic increment.
func (r *Recorder) emit(e Event, m env.Message) {
	select {
	case r.ch <- pending{e: e, m: m}:
		r.events.Add(1)
	default:
		r.dropped.Add(1)
	}
}

// RecordStart implements live.Recorder.
func (r *Recorder) RecordStart(node env.NodeID, nowMicros int64, seed uint64, init []byte) {
	r.emit(Event{Kind: KStart, Node: int64(node), Time: nowMicros, Aux: seed, Data: init}, nil)
}

// RecordDeliver implements live.Recorder. The message is handed to the
// writer by reference (immutable once sent); the writer encodes it with
// the internal/proto codec.
func (r *Recorder) RecordDeliver(node, from env.NodeID, nowMicros int64, m env.Message) {
	r.emit(Event{Kind: KDeliver, Node: int64(node), Peer: int64(from), Time: nowMicros}, m)
}

// RecordTimer implements live.Recorder.
func (r *Recorder) RecordTimer(node env.NodeID, nowMicros int64, timerID uint64, deadlineMicros int64) {
	r.emit(Event{Kind: KTimer, Node: int64(node), Time: nowMicros, Aux: timerID, Aux2: deadlineMicros}, nil)
}

// RecordCall implements live.Recorder.
func (r *Recorder) RecordCall(node env.NodeID, nowMicros int64, name string, arg []byte) {
	r.emit(Event{Kind: KCall, Node: int64(node), Time: nowMicros, Name: name, Data: arg}, nil)
}

// RecordSend implements live.Recorder. Only the (destination, type)
// pair is logged; see MessageType.
func (r *Recorder) RecordSend(node, to env.NodeID, nowMicros int64, m env.Message) {
	r.emit(Event{Kind: KSend, Node: int64(node), Peer: int64(to), Time: nowMicros}, m)
}

// RecordStop implements live.Recorder.
func (r *Recorder) RecordStop(node env.NodeID, nowMicros int64, digest uint64, hasDigest bool) {
	var has int64
	if hasDigest {
		has = 1
	}
	r.emit(Event{Kind: KStop, Node: int64(node), Time: nowMicros, Aux: digest, Aux2: has}, nil)
}

// RecordKill implements live.Recorder.
func (r *Recorder) RecordKill(node env.NodeID, nowMicros int64, digest uint64, hasDigest bool) {
	var has int64
	if hasDigest {
		has = 1
	}
	r.emit(Event{Kind: KKill, Node: int64(node), Time: nowMicros, Aux: digest, Aux2: has}, nil)
}

// RecordFault implements live.Recorder.
func (r *Recorder) RecordFault(from, to env.NodeID, nowMicros int64, drop, dup bool, delayMicros int64) {
	var aux uint64
	if drop {
		aux |= 1
	}
	if dup {
		aux |= 2
	}
	r.emit(Event{Kind: KFault, Node: int64(from), Peer: int64(to), Time: nowMicros, Aux: aux, Aux2: delayMicros}, nil)
}

// RecordDigest implements live.Recorder.
func (r *Recorder) RecordDigest(node env.NodeID, nowMicros int64, digest uint64) {
	r.emit(Event{Kind: KDigest, Node: int64(node), Time: nowMicros, Aux: digest}, nil)
}

// Close drains the queue, flushes and fsyncs the log, and writes
// meta.json. Detach the recorder from the runtime (SetRecorder(nil))
// before closing; Record* calls after Close are dropped, not a panic.
func (r *Recorder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()

	r.ch <- pending{stop: true} // sentinel; writer drains everything queued before it
	<-r.done

	err := r.werr
	if ferr := r.bw.Flush(); err == nil {
		err = ferr
	}
	if serr := r.f.Sync(); err == nil {
		err = serr
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}

	meta := Meta{
		Format:    logMagic,
		Events:    r.events.Load(),
		Bytes:     r.bytes.Load(),
		Dropped:   r.dropped.Load(),
		TraceSeed: r.traceSeed.Load(),
	}
	mb, merr := json.MarshalIndent(meta, "", "  ")
	if merr == nil {
		merr = os.WriteFile(filepath.Join(r.dir, MetaFile), append(mb, '\n'), 0o644)
	}
	if err == nil {
		err = merr
	}
	return err
}
