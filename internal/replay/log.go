// Package replay is the flight-recorder subsystem for the live runtime:
// it records every nondeterministic input a live node observes — message
// deliveries (with their internal/proto codec bytes), timer firings with
// their logical deadlines, node start/stop/kill, named calls,
// fault-injector decisions and per-node RNG seeds — to a
// length-prefixed, CRC-framed binary event log, and re-executes a
// recorded log on the deterministic sim scheduler (internal/sim),
// detecting the first point where the replayed run diverges from the
// recording.
//
// The package implements live.Recorder structurally; it depends only on
// env/rng/sim/trace/proto, so internal/live never imports it and no
// cycle exists. See DESIGN.md §7 for the format and divergence
// semantics.
package replay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"repro/internal/env"
	"repro/internal/proto"
)

// Kind enumerates recorded event types.
type Kind uint8

const (
	// KStart: a node came up. Node, Time; Aux = rng seed; Data = opaque
	// actor-reconstruction blob (ReplayIniter), may be empty.
	KStart Kind = iota + 1
	// KDeliver: a message was dispatched to a node's actor. Node, Peer
	// (sender), Time; Name = concrete Go type. Aux selects the payload
	// encoding of Data: auxCodec = a standalone blob in the
	// internal/proto wire codec, auxUnencodable = the payload was outside
	// the codec's message set (Data empty); see Event.Message. A
	// ProfileUpdate recorded while reports still carried timing maps
	// fails to decode at its own event; re-record such a run.
	KDeliver
	// KTimer: a timer callback fired. Node, Time; Aux = per-node timer
	// ID; Aux2 = logical deadline micros.
	KTimer
	// KCall: a named external operation ran on the node's loop. Node,
	// Time; Name = operation name; Data = opaque argument blob.
	KCall
	// KSend: a node sent a message (observable output, compared during
	// replay, never re-injected). Node, Peer (destination), Time;
	// Name = concrete Go type.
	KSend
	// KStop: a node shut down gracefully. Node, Time; Aux = final state
	// digest, Aux2 = 1 when Aux is meaningful.
	KStop
	// KKill: a node was killed (no Stop hook). Fields as KStop.
	KKill
	// KFault: the fault injector impaired a message (informational).
	// Node = from, Peer = to, Time; Aux2 = delay micros; Aux bit 0 =
	// drop, bit 1 = dup.
	KFault
	// KDigest: a periodic state-digest checkpoint. Node, Time; Aux =
	// digest.
	KDigest
)

// KDeliver payload encodings (Event.Aux). Aux=0 marked a segment of a
// log-wide gob stream written by earlier recorders; it is no longer
// decodable and must not be reused.
const (
	auxUnencodable = 1
	auxCodec       = 2
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KStart:
		return "start"
	case KDeliver:
		return "deliver"
	case KTimer:
		return "timer"
	case KCall:
		return "call"
	case KSend:
		return "send"
	case KStop:
		return "stop"
	case KKill:
		return "kill"
	case KFault:
		return "fault"
	case KDigest:
		return "digest"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded nondeterministic input (or observable output).
// Field meaning depends on Kind; see the Kind constants.
type Event struct {
	Kind Kind
	Node int64 // owning node ID
	Peer int64 // counterpart node ID (sender for deliver, dest for send)
	Time int64 // latched node clock, micros since runtime start
	Aux  uint64
	Aux2 int64
	Name string
	Data []byte
}

// Message decodes a KDeliver event's payload. Every payload is a
// standalone codec blob, so a damaged payload fails only its own event.
func (e *Event) Message() (env.Message, error) {
	switch e.Aux {
	case auxCodec:
		return proto.DecodeMessage(e.Data)
	case auxUnencodable:
		return nil, fmt.Errorf("recorded %s payload was outside the internal/proto codec's message set, so only its type name was logged", e.Name)
	case 0:
		return nil, fmt.Errorf("recorded %s payload is a segment of a gob payload stream, which is no longer supported; re-record the run", e.Name)
	}
	return nil, fmt.Errorf("recorded %s payload has unknown encoding %d", e.Name, e.Aux)
}

// Log framing: the file opens with an 8-byte magic, then one frame per
// event: u32 payload length, u32 CRC-32 (IEEE) of the payload, payload.
// A truncated final frame (crash mid-write) is tolerated and surfaced
// via Log.Truncated, while a CRC mismatch is corruption and fails the
// read with the frame index.
const (
	logMagic = "P2PRLOG2"
	// maxEventFrame bounds one frame so a corrupted length field cannot
	// ask for gigabytes; comfortably above the transport's 8 MiB frame
	// cap plus event overhead.
	maxEventFrame = 16 << 20
)

// EventsFile is the event-log filename inside a recording directory.
const EventsFile = "events.bin"

// MetaFile is the recording-metadata filename inside a recording
// directory.
const MetaFile = "meta.json"

// TraceFile is the recorded trace snapshot filename inside a recording
// directory.
const TraceFile = "trace.jsonl"

// ReplayTraceFile is where the replayer writes the re-executed trace.
const ReplayTraceFile = "replay_trace.jsonl"

// appendFrame appends e to buf as one frame: [u32 length][u32 CRC-32 of
// the payload][payload], the payload encoding e's header, name and data.
func appendFrame(buf []byte, e *Event) ([]byte, error) {
	start := len(buf)
	b := slices.Grow(buf, 8+1+5*8+2+len(e.Name)+4+len(e.Data))
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // header, filled in below
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Peer))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
	b = binary.LittleEndian.AppendUint64(b, e.Aux)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Aux2))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Name)))
	b = append(b, e.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Data)))
	b = append(b, e.Data...)
	payload := b[start+8:]
	if len(payload) > maxEventFrame {
		return buf, fmt.Errorf("replay: event frame %d bytes exceeds limit %d", len(payload), maxEventFrame)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// unmarshalEvent decodes one frame payload produced by appendFrame.
func unmarshalEvent(b []byte) (Event, error) {
	var e Event
	if len(b) < 1+5*8+2+4 {
		return e, fmt.Errorf("event payload too short: %d bytes", len(b))
	}
	e.Kind = Kind(b[0])
	b = b[1:]
	e.Node = int64(binary.LittleEndian.Uint64(b[0:]))
	e.Peer = int64(binary.LittleEndian.Uint64(b[8:]))
	e.Time = int64(binary.LittleEndian.Uint64(b[16:]))
	e.Aux = binary.LittleEndian.Uint64(b[24:])
	e.Aux2 = int64(binary.LittleEndian.Uint64(b[32:]))
	b = b[40:]
	nameLen := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < nameLen+4 {
		return e, fmt.Errorf("event name overruns payload (%d of %d bytes)", nameLen, len(b))
	}
	e.Name = string(b[:nameLen])
	b = b[nameLen:]
	dataLen := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != dataLen {
		return e, fmt.Errorf("event data length %d does not match remaining %d bytes", dataLen, len(b))
	}
	if dataLen > 0 {
		e.Data = append([]byte(nil), b...)
	}
	return e, nil
}

// CorruptError reports a frame whose CRC or structure is invalid. The
// reader never panics on bad input; it names the frame index and byte
// offset so the divergence point of a damaged log is still actionable.
type CorruptError struct {
	Index  int   // frame index (= event index) of the bad frame
	Offset int64 // byte offset of the frame header
	Err    error
}

func (c *CorruptError) Error() string {
	return fmt.Sprintf("replay: corrupt log frame %d at byte %d: %v", c.Index, c.Offset, c.Err)
}

func (c *CorruptError) Unwrap() error { return c.Err }

// Log is a fully parsed recording.
type Log struct {
	Events []Event
	// Truncated reports that the file ended mid-frame — an interrupted
	// recording whose complete prefix is still replayable.
	Truncated bool
}

// ReadLog parses an event log from r.
func ReadLog(r io.Reader) (*Log, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("replay: reading log magic: %w", err)
	}
	if string(magic) != logMagic {
		return nil, fmt.Errorf("replay: bad log magic %q", magic)
	}
	lg := &Log{}
	var header [8]byte
	offset := int64(len(logMagic))
	for i := 0; ; i++ {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if err == io.EOF {
				return lg, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				lg.Truncated = true
				return lg, nil
			}
			return nil, err
		}
		length := binary.LittleEndian.Uint32(header[0:])
		sum := binary.LittleEndian.Uint32(header[4:])
		if length > maxEventFrame {
			return nil, &CorruptError{Index: i, Offset: offset,
				Err: fmt.Errorf("frame length %d exceeds limit %d", length, maxEventFrame)}
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || err == io.EOF {
				lg.Truncated = true
				return lg, nil
			}
			return nil, err
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, &CorruptError{Index: i, Offset: offset,
				Err: fmt.Errorf("CRC mismatch: frame says %#x, payload hashes to %#x", sum, got)}
		}
		ev, err := unmarshalEvent(payload)
		if err != nil {
			return nil, &CorruptError{Index: i, Offset: offset, Err: err}
		}
		lg.Events = append(lg.Events, ev)
		offset += 8 + int64(length)
	}
}

// ReadLogFile parses the event log at path.
func ReadLogFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLog(f)
}

// ReadLogDir parses the event log inside a recording directory.
func ReadLogDir(dir string) (*Log, error) {
	return ReadLogFile(dir + "/" + EventsFile)
}
