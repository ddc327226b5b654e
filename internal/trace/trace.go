// Package trace provides run-wide span tracing for the middleware: one
// Tracer is shared by every peer of a run (like core.Events) and records
// the end-to-end life of each task query — submit, allocation, session
// composition, streaming, repair, preemption, failover — as causally
// linked spans keyed by task ID.
//
// The tracer is clock-agnostic: callers stamp every record with their own
// environment clock (virtual sim.Time under simulation, wall micros under
// the live runtime), so traces from both substrates share one format.
//
// Cost model: every method on a nil *Tracer returns immediately, and hot
// call sites additionally guard with an explicit nil check so the
// disabled path costs one pointer comparison and allocates nothing (see
// BenchmarkTraceDisabled). All methods are safe for concurrent use; the
// live runtime's node goroutines share one tracer.
//
// Export is Chrome trace-event format
// (chrome://tracing, https://ui.perfetto.dev): one JSON event object per
// line (JSONL). Sessions are async spans (ph "b"/"e") whose id is the
// task's span ID, so spans emitted by different peers and domains for the
// same task link into one track; pid is the domain, tid the node.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/rng"
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr; it keeps call sites compact.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one trace record in Chrome trace-event form.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`            // microseconds
	Dur   int64          `json:"dur,omitempty"` // complete events only
	PID   int            `json:"pid"`           // domain
	TID   int            `json:"tid"`           // node
	ID    string         `json:"id,omitempty"`  // async span id
	Scope string         `json:"s,omitempty"`   // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

// DefaultMaxEvents bounds the in-memory buffer of a Tracer; beyond it new
// records are counted as dropped rather than grown without limit (a live
// deployment can run indefinitely).
const DefaultMaxEvents = 1 << 20

// session tracks the open/closed state of one task's trace.
type session struct {
	id     uint64
	open   bool
	phases []string // stack of open child phases, e.g. compose, stream
}

// Tracer buffers trace events for one run. The zero value is not usable;
// call New. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mu sync.Mutex

	// All fields below are guarded by mu.
	events    []Event             // guarded by mu
	sessions  map[string]*session // guarded by mu
	seed      uint64              // span-id derivation material; guarded by mu
	begun     int                 // sessions ever begun; guarded by mu
	dropped   int                 // guarded by mu
	maxEvents int                 // guarded by mu
}

// New creates an enabled tracer with the default buffer bound.
func New() *Tracer {
	return &Tracer{sessions: make(map[string]*session), maxEvents: DefaultMaxEvents}
}

// SetSeed fixes the span-id derivation material. Span IDs are a pure
// function of (seed, task ID), so runs — and distinct processes — that
// share a seed derive identical IDs for the same task and their spans
// stitch into one async track when traces are merged. Both runtime
// constructors call this with their run seed before any node starts.
func (t *Tracer) SetSeed(seed uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seed = seed
	t.mu.Unlock()
}

// SetMaxEvents adjusts the buffer bound (<= 0 means unlimited).
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.maxEvents = n
	t.mu.Unlock()
}

// recordLocked appends one event, honoring the buffer bound. Caller
// holds t.mu.
func (t *Tracer) recordLocked(e Event) {
	if t.maxEvents > 0 && len(t.events) >= t.maxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// attrMap converts attrs to the Args map (nil when empty).
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func spanID(id uint64) string { return fmt.Sprintf("0x%x", id) }

// fnv64a is the 64-bit FNV-1a hash, used to fold task IDs and phase
// names into span-id derivation streams.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// DeriveSpanID returns the span id a tracer seeded with seed assigns to
// task: rng seed material mixed with the task-ID hash. It is the
// cross-process contract that makes equal-seed nodes agree on span IDs
// without coordination; exported so tests and the fleet collector can
// predict IDs.
func DeriveSpanID(seed uint64, task string) uint64 {
	id := rng.Derive(seed, fnv64a(task))
	if id == 0 { // keep 0 as the "untraced" sentinel in TraceContext
		id = fnv64a(task) | 1
	}
	return id
}

// PhaseRef derives the stable reference id of one named phase inside a
// session span. Propagated trace contexts carry it as the parent-span
// ref: the receiver learns not just which session a message belongs to
// but which phase of it caused the message.
func PhaseRef(span uint64, phase string) uint64 {
	return rng.Derive(span, fnv64a(phase))
}

// ensureLocked returns the session record for task, creating it
// (closed) on first sight. Caller holds t.mu.
func (t *Tracer) ensureLocked(task string) *session {
	s, ok := t.sessions[task]
	if !ok {
		s = &session{id: DeriveSpanID(t.seed, task)}
		t.sessions[task] = s
	}
	return s
}

// SpanFor returns the span id of a task's session, deriving (and
// remembering) it on first sight. Senders stamp outgoing messages with
// it; 0 is returned only from a nil tracer.
func (t *Tracer) SpanFor(task string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ensureLocked(task).id
}

// Adopt binds a task to a span id propagated from another process. The
// first binding for a task wins — with equal seeds the propagated id
// equals the locally derived one, and with diverging seeds the earliest
// context observed keeps the trace self-consistent. A fresh adoption
// with a parent-span ref records a "ctx" instant documenting the
// causal handoff; re-adoptions are silent no-ops.
func (t *Tracer) Adopt(ts int64, task string, span, parent uint64, node, domain int) {
	if t == nil || span == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[task]; ok {
		return
	}
	t.sessions[task] = &session{id: span}
	if parent == 0 {
		return
	}
	t.recordLocked(Event{Name: "ctx", Cat: "session", Phase: "i", TS: ts,
		PID: domain, TID: node, ID: spanID(span), Scope: "t",
		Args: map[string]any{"task": task, "parent": spanID(parent)}})
}

// BeginSession opens the root span of one task query. Reopening an
// already-open session is a no-op, so retry paths stay idempotent.
func (t *Tracer) BeginSession(ts int64, task string, node, domain int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.ensureLocked(task)
	if s.open {
		return
	}
	s.open = true
	t.begun++
	args := attrMap(attrs)
	if args == nil {
		args = map[string]any{}
	}
	args["task"] = task
	t.recordLocked(Event{Name: "session", Cat: "session", Phase: "b", TS: ts,
		PID: domain, TID: node, ID: spanID(s.id), Args: args})
}

// EndSession closes a task's root span with an outcome (completed,
// rejected, aborted, timeout). Any still-open child phases are closed
// first so the trace stays well-formed. Ending a closed or unknown
// session is a no-op: a task that is rejected by the RM, timed out at the
// submitter and later aborted still ends exactly once, with the first
// outcome observed.
func (t *Tracer) EndSession(ts int64, task string, node, domain int, outcome string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[task]
	if !ok || !s.open {
		return
	}
	for i := len(s.phases) - 1; i >= 0; i-- {
		t.recordLocked(Event{Name: s.phases[i], Cat: "session", Phase: "e", TS: ts,
			PID: domain, TID: node, ID: spanID(s.id)})
	}
	s.phases = nil
	s.open = false
	args := attrMap(attrs)
	if args == nil {
		args = map[string]any{}
	}
	args["task"] = task
	args["outcome"] = outcome
	t.recordLocked(Event{Name: "session", Cat: "session", Phase: "e", TS: ts,
		PID: domain, TID: node, ID: spanID(s.id), Args: args})
}

// BeginPhase opens a named child span (compose, stream, repair) nested
// under the task's session span. A phase already open for the task is not
// reopened (repairs re-compose while streaming continues).
func (t *Tracer) BeginPhase(ts int64, task, phase string, node, domain int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.ensureLocked(task)
	for _, p := range s.phases {
		if p == phase {
			return
		}
	}
	s.phases = append(s.phases, phase)
	t.recordLocked(Event{Name: phase, Cat: "session", Phase: "b", TS: ts,
		PID: domain, TID: node, ID: spanID(s.id), Args: attrMap(attrs)})
}

// EndPhase closes a child span opened by BeginPhase; unknown or closed
// phases are ignored.
func (t *Tracer) EndPhase(ts int64, task, phase string, node, domain int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[task]
	if !ok {
		return
	}
	for i, p := range s.phases {
		if p == phase {
			s.phases = append(s.phases[:i], s.phases[i+1:]...)
			t.recordLocked(Event{Name: phase, Cat: "session", Phase: "e", TS: ts,
				PID: domain, TID: node, ID: spanID(s.id), Args: attrMap(attrs)})
			return
		}
	}
}

// Transport instant names recorded by the live transport's connection
// supervisors (internal/live): connectivity changes that explain a
// failover when read next to the session spans.
const (
	TransportReconnect   = "transport.reconnect"
	TransportCircuitOpen = "transport.circuit_open"
	TransportFault       = "transport.fault"
)

// EventDecision is the instant name of RM decision-audit records
// (admit/reject/redirect/preempt/migrate/failover): the explainability
// layer for the adaptation loop. Call sites must pass the constant so
// trace consumers can filter on it.
const EventDecision = "decision"

// TransportInstant records a connectivity instant from the live
// transport (reconnects, circuit state changes, injected faults). addr
// is the remote address; transport events belong to no node or domain,
// so they land on pid/tid -1 and stay visually separate from session
// tracks.
func (t *Tracer) TransportInstant(ts int64, name, addr string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	args := attrMap(attrs)
	if args == nil {
		args = map[string]any{}
	}
	args["addr"] = addr
	t.recordLocked(Event{Name: name, Cat: "transport", Phase: "i", TS: ts,
		PID: -1, TID: -1, Scope: "t", Args: args})
}

// Instant records a point event (redirect, preemption, failover, late
// chunk). task may be "" for events not tied to one query.
func (t *Tracer) Instant(ts int64, task, name string, node, domain int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{Name: name, Cat: "session", Phase: "i", TS: ts, PID: domain, TID: node,
		Scope: "t", Args: attrMap(attrs)}
	if task != "" {
		e.ID = spanID(t.ensureLocked(task).id)
		if e.Args == nil {
			e.Args = map[string]any{}
		}
		e.Args["task"] = task
	}
	t.recordLocked(e)
}

// Complete records a span with an explicit duration (e.g. one allocation
// computation), both stamped by the caller's clock.
func (t *Tracer) Complete(ts, dur int64, task, name string, node, domain int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{Name: name, Cat: "session", Phase: "X", TS: ts, Dur: dur,
		PID: domain, TID: node, Args: attrMap(attrs)}
	if task != "" {
		e.ID = spanID(t.ensureLocked(task).id)
		if e.Args == nil {
			e.Args = map[string]any{}
		}
		e.Args["task"] = task
	}
	t.recordLocked(e)
}

// Len reports how many events are buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped reports events discarded by the buffer bound.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SessionsBegun reports how many root session spans were ever opened.
func (t *Tracer) SessionsBegun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.begun
}

// OpenSessions reports sessions begun but not yet ended.
func (t *Tracer) OpenSessions() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.sessions {
		if s.open {
			n++
		}
	}
	return n
}

// Snapshot returns a copy of the buffered events.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSONL writes the buffered events as Chrome trace-event JSONL: one
// JSON object per line. `jq -s . out.jsonl` turns it into the JSON-array
// form chrome://tracing loads directly; Perfetto reads the JSONL as is.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeEvents(w, t.Snapshot())
}

// writeEvents writes events (a Snapshot) as WriteJSONL does.
func writeEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses trace-event JSONL as WriteJSONL writes it: one event
// per line, blank lines skipped. A parse error names its line.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	return events, sc.Err()
}

// WriteFile writes the trace to path via WriteJSONL.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	return WriteEventsFile(path, t.Snapshot())
}

// WriteEventsFile writes events (a Snapshot) to path as WriteFile does.
func WriteEventsFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
