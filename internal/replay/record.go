package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"repro/internal/env"
	"repro/internal/proto"
)

// MessageType names a message's concrete Go type. Sends are logged and
// compared by (destination, type name) only: that is enough to place a
// divergence, keeps send events small, and spares the recorder an
// encode per send; payload-level drift surfaces at the next digest
// checkpoint.
func MessageType(m env.Message) string { return fmt.Sprintf("%T", m) }

// Meta is the recording metadata written alongside the event log.
type Meta struct {
	Format string `json:"format"`
	Events uint64 `json:"events"`
	Bytes  uint64 `json:"bytes"`
	// Dropped counts events that reached the recorder after Close, such
	// as a late RecordFault from outside the recording cut. An open
	// recorder writes every event, so a clean recording has zero.
	// Recordings made before writes were synchronous also counted here
	// the events their writer queue shed on overflow.
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
// for concurrent use and write synchronously: before it returns, each
// call encodes its event (codec payload, type name, framing, CRC) into
// a 64 KiB buffered writer under mu, so the recorder keeps no reference
// to a message. An open recorder therefore never drops an event; the
// cost is a mutex and, once per buffer, a file write on the node loop
// that records.
type Recorder struct {
	dir string
	f   *os.File

	mu        sync.Mutex
	closed    bool                    // guarded by mu
	werr      error                   // first write error, surfaced from Close; guarded by mu
	events    uint64                  // guarded by mu
	bytes     uint64                  // guarded by mu
	dropped   uint64                  // events after Close; guarded by mu
	traceSeed uint64                  // guarded by mu
	bw        *bufio.Writer           // guarded by mu
	frame     []byte                  // guarded by mu
	payload   []byte                  // guarded by mu
	names     map[reflect.Type]string // MessageType per type, rendered once; guarded by mu
}

// NewRecorder opens a recording directory (created if needed). The
// caller must Close to flush the final frames.
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
	return &Recorder{dir: dir, f: f, bw: bw, names: make(map[reflect.Type]string)}, nil
}

// Dir returns the recording directory.
func (r *Recorder) Dir() string { return r.dir }

// SetTraceSeed records the tracer seed of the run being recorded; it is
// written into meta.json at Close for the replayer to adopt.
func (r *Recorder) SetTraceSeed(seed uint64) {
	r.mu.Lock()
	r.traceSeed = seed
	r.mu.Unlock()
}

// Counters returns (events recorded, bytes written, events dropped) so
// far. Dropped counts only events that arrived after Close. Safe to
// call concurrently with recording.
func (r *Recorder) Counters() (events, bytes, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events, r.bytes, r.dropped
}

// emit encodes, frames and buffers one event. m, when non-nil, names
// the event (sends and deliveries); a delivery also carries m as a
// standalone internal/proto codec blob, decodable on its own. A payload
// outside the codec's message set degrades to a typed marker so replay
// reports the gap instead of silently skipping it.
func (r *Recorder) emit(e Event, m env.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped++
		return
	}
	r.events++
	if r.werr != nil {
		return // error already latched; Close reports it
	}
	if m != nil {
		t := reflect.TypeOf(m)
		name, ok := r.names[t]
		if !ok {
			name = MessageType(m)
			r.names[t] = name
		}
		e.Name = name
		if e.Kind == KDeliver {
			if b, ok := proto.AppendMessage(r.payload[:0], m); ok {
				r.payload = b
				e.Aux = auxCodec
				e.Data = b
			} else {
				e.Aux = auxUnencodable
			}
		}
	}
	frame, err := appendFrame(r.frame[:0], &e)
	r.frame = frame
	if err == nil {
		_, err = r.bw.Write(frame)
	}
	if err != nil {
		r.werr = err
		return
	}
	r.bytes += uint64(len(frame))
}

// RecordStart implements live.Recorder.
func (r *Recorder) RecordStart(node env.NodeID, nowMicros int64, seed uint64, init []byte) {
	r.emit(Event{Kind: KStart, Node: int64(node), Time: nowMicros, Aux: seed, Data: init}, nil)
}

// RecordDeliver implements live.Recorder. The message is encoded with
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

// Close flushes and fsyncs the log and writes meta.json. Detach the
// recorder from the runtime (SetRecorder(nil, nil)) before closing; Record*
// calls after Close are counted as dropped, never written or a panic.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true

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
		Events:    r.events,
		Bytes:     r.bytes,
		Dropped:   r.dropped,
		TraceSeed: r.traceSeed,
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
