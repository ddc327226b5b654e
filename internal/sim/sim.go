// Package sim is a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in microseconds and a 4-ary heap of
// pending events. Events scheduled for the same instant fire in the order
// they were scheduled (ties broken by a monotone sequence number), which
// makes runs bit-reproducible given the same seed and schedule.
package sim

import "fmt"

// Time is a virtual timestamp in microseconds since the start of the run.
type Time int64

// Common durations expressed in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// FromSeconds converts floating-point seconds to Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// event is one scheduled callback, nil once it has fired or been cancelled.
type event struct{ fn func() }

// entry is one heap slot. Its (at, seq) key is inline, so comparisons never
// touch the event; keys are unique, so the firing order is layout-free.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

func (a entry) less(b entry) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// Engine runs events in virtual-time order. It is not safe for concurrent
// use; all simulated components run on the engine's single logical thread.
type Engine struct {
	now       Time
	seq       uint64
	queue     []entry // 4-ary min-heap ordered by (at, seq)
	cancelled int     // entries in queue whose event was cancelled
	fired     uint64
	halted    bool
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued, not counting cancelled ones.
func (e *Engine) Pending() int { return len(e.queue) - e.cancelled }

// Handle identifies a scheduled event and allows cancellation.
type Handle struct {
	e  *Engine
	ev *event
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.fn == nil {
		return false
	}
	h.ev.fn = nil
	h.e.cancelled++
	if h.e.cancelled > 64 && h.e.cancelled > len(h.e.queue)/2 {
		h.e.compact()
	}
	return true
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	ev := &event{fn}
	e.push(entry{at, e.seq, ev})
	e.seq++
	return Handle{e, ev}
}

// After schedules fn to run delay from now.
func (e *Engine) After(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Halt stops the current Run/RunUntil after the in-flight event returns.
func (e *Engine) Halt() { e.halted = true }

// Step executes the next pending event, advancing the clock. It reports
// whether an event ran.
func (e *Engine) Step() bool { return e.step(1<<63 - 1) }

// RunUntil executes events until the queue is empty or the next event is
// after deadline; the clock then advances to deadline (never backwards).
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted && e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// step fires the next live event due by deadline, dropping dead heads first.
func (e *Engine) step(deadline Time) bool {
	for len(e.queue) > 0 && e.queue[0].ev.fn == nil {
		e.pop()
		e.cancelled--
	}
	if len(e.queue) == 0 || e.queue[0].at > deadline {
		return false
	}
	x := e.pop()
	fn := x.ev.fn
	x.ev.fn = nil
	e.now, e.fired = x.at, e.fired+1
	fn()
	return true
}

// push adds x. Its seq is the newest, so only a strictly earlier time lifts it.
func (e *Engine) push(x entry) {
	i := len(e.queue)
	e.queue = append(e.queue, x)
	for ; i > 0 && x.at < e.queue[(i-1)/4].at; i = (i - 1) / 4 {
		e.queue[i] = e.queue[(i-1)/4]
	}
	e.queue[i] = x
}

// pop removes and returns the heap's minimum entry.
func (e *Engine) pop() entry {
	top, n := e.queue[0], len(e.queue)-1
	last := e.queue[n]
	e.queue[n] = entry{} // release the event for the collector
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(0, last)
	}
	return top
}

// down places x at slot i or below, moving smaller children up.
func (e *Engine) down(i int, x entry) {
	q := e.queue
	for c := 4*i + 1; c < len(q); c = 4*i + 1 {
		m := c
		for j := c + 1; j < c+4 && j < len(q); j++ {
			if q[j].less(q[m]) {
				m = j
			}
		}
		if !q[m].less(x) {
			break
		}
		q[i], i = q[m], m
	}
	q[i] = x
}

// compact drops the cancelled entries and re-heapifies in O(n). Cancel runs
// it once they outnumber live ones, so it costs O(1) amortised per cancel.
func (e *Engine) compact() {
	q := e.queue[:0]
	for _, x := range e.queue {
		if x.ev.fn != nil {
			q = append(q, x)
		}
	}
	clear(e.queue[len(q):])
	e.queue, e.cancelled = q, 0
	for i := (len(q) - 2) / 4; len(q) > 1 && i >= 0; i-- {
		e.down(i, q[i])
	}
}
