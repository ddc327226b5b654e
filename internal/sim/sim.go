// Package sim is a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in microseconds and a queue of
// pending events. Events scheduled for the same instant fire in the order
// they were scheduled (ties broken by a monotone sequence number), which
// makes runs bit-reproducible given the same seed and schedule.
//
// An event is either a func() callback (At, After) or a typed Event
// (Schedule) that the engine hands to its one target (SetTarget) when it
// fires. Both live in a slab of fixed-size slots. The queue has three
// tiers: a 4-ary heap of pointer-free (time, seq|slot) keys holding the
// current bucket of about a millisecond, rings of unsorted per-bucket
// lists linked through the slots for about the next four seconds, and
// an overflow heap beyond that. Scheduling and firing allocate nothing.
package sim

import (
	"fmt"
	"math/bits"
)

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

// Event is a typed event: the payload of one Schedule call, handed back
// to the engine's target when it fires. Kind 0 is reserved for the func()
// callbacks of At and After.
type Event struct {
	X    any
	A, B int32
	Kind uint8
}

// slot holds one queued event. For kind 0, x is the func() callback.
type slot struct {
	x    any
	at   Time
	seq  uint64 // the seq the event was scheduled under; its low 32 bits are the handle's generation
	a, b int32
	next int32 // in a ring bucket's list: the next slot's index + 1, 0 at the end
	kind uint8
	live bool // neither fired nor cancelled
}

// A heap entry's key is seq<<slotBits | slot index: unique, so it orders
// ties by scheduling order, and the slot needs no lookup to compare.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1 << (64 - slotBits)
	// minShrinkCap is the capacity below which the slab and the heaps are
	// never re-allocated smaller.
	minShrinkCap = 256
)

// An event's bucket is its time >> bucketShift (1.024 ms), and a block
// is ringSize buckets (65.5 ms). The near ring holds the buckets of the
// current block after the current one; the far ring holds the next
// ringSize-1 blocks, so the two reach 4.1 to 4.2 s past the current
// bucket.
const (
	bucketShift = 10
	ringBits    = 6
	ringSize    = 1 << ringBits
	ringMask    = ringSize - 1
)

// entry is one heap element. It holds no pointer, so the collector never
// scans a heap, and four children fill one cache line.
type entry struct {
	at  Time
	key uint64
}

func (a entry) less(b entry) bool { return a.at < b.at || (a.at == b.at && a.key < b.key) }

func (a entry) slot() int { return int(a.key & slotMask) }

// Engine runs events in virtual-time order. It is not safe for concurrent
// use; all simulated components run on the engine's single logical thread.
//
// Every queued event sits in exactly one tier, by its bucket b:
//   - b <= cur: in heap;
//   - b > cur in cur's block: in near's list b&ringMask;
//   - a later block less than ringSize blocks on: in far's list block&ringMask;
//   - further: in overflow.
//
// The heap's minimum is therefore the earliest event; when the heap runs
// dry, refill moves cur to the next non-empty bucket.
type Engine struct {
	now       Time
	seq       uint64
	cur       int64 // the bucket whose events, and any earlier ones, are in heap
	heap      queue
	near, far ring
	overflow  queue
	queued    int      // events in every tier, cancelled ones included
	slots     []slot   // every queued event, pending or cancelled
	free      []uint64 // bit i set: slots[i] is free
	freeLo    int      // no word of free below this index has a bit set
	cancelled int      // queued events that were cancelled
	fired     uint64
	halted    bool
	target    func(Event)
	cancelID  func(id uint64) bool // e.cancel, bound once for every Handle's Canceller
}

// New returns an engine with the clock at zero.
func New() *Engine {
	e := &Engine{}
	e.cancelID = e.cancel
	return e
}

// SetTarget registers fn as the receiver of every typed event. An engine
// has one target; registering a second panics.
func (e *Engine) SetTarget(fn func(Event)) {
	if e.target != nil {
		panic("sim: engine already has a typed-event target")
	}
	e.target = fn
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued, not counting cancelled ones.
func (e *Engine) Pending() int { return e.queued - e.cancelled }

// Handle identifies a scheduled event and allows cancellation. It names
// the event's slot and the generation the slot had when the event was
// scheduled, so a stale handle never reaches the slot's next occupant.
type Handle struct {
	e  *Engine
	id uint64 // gen<<32 | slot
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool { return h.e != nil && h.e.cancel(h.id) }

// Canceller returns a func and an id such that fn(id) is h.Cancel(). The
// func is shared by every handle of the engine, so storing the pair
// allocates nothing. A zero Handle returns a nil func.
func (h Handle) Canceller() (fn func(id uint64) bool, id uint64) {
	if h.e == nil {
		return nil, 0
	}
	return h.e.cancelID, h.id
}

func (e *Engine) cancel(id uint64) bool {
	i := int(uint32(id))
	if i >= len(e.slots) {
		return false
	}
	s := &e.slots[i]
	if !s.live || uint32(s.seq) != uint32(id>>32) {
		return false
	}
	s.live, s.x = false, nil
	e.cancelled++
	if e.cancelled > 64 && e.cancelled > e.queued/2 {
		e.compact()
	}
	return true
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func()) Handle {
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	return e.push(at, slot{x: fn})
}

// After schedules fn to run delay from now.
func (e *Engine) After(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Schedule queues the typed event ev at absolute time at; it fires by a
// call to the target. ev.Kind must not be 0, and a target must be set.
func (e *Engine) Schedule(at Time, ev Event) Handle {
	if ev.Kind == 0 || e.target == nil {
		panic("sim: typed event of kind 0 or without a target")
	}
	return e.push(at, slot{x: ev.X, a: ev.A, b: ev.B, kind: ev.Kind})
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
	for {
		if len(e.heap) == 0 && !e.refill() {
			return false
		}
		if e.slots[e.heap[0].slot()].live {
			break
		}
		e.drop(e.heap.pop().slot())
	}
	if e.heap[0].at > deadline {
		return false
	}
	x := e.heap.pop()
	s := e.slots[x.slot()]
	e.release(x.slot())
	e.now, e.fired = x.at, e.fired+1
	if s.kind == 0 {
		s.x.(func())()
	} else {
		e.target(Event{X: s.x, A: s.a, B: s.b, Kind: s.kind})
	}
	return true
}

// push queues s at time at under the next seq.
func (e *Engine) push(at Time, s slot) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	if e.seq == maxSeq {
		panic("sim: sequence space exhausted")
	}
	i := e.alloc()
	s.at, s.seq, s.live = at, e.seq, true
	e.slots[i] = s
	e.seq++
	e.queued++
	e.place(i)
	return Handle{e, uint64(uint32(s.seq))<<32 | uint64(i)}
}

// place puts the live event in slot i into the tier its bucket belongs to.
func (e *Engine) place(i int) {
	s := &e.slots[i]
	s.next = 0
	b := int64(s.at) >> bucketShift
	switch ahead := b>>ringBits - e.cur>>ringBits; {
	case b <= e.cur:
		e.heap.push(entry{s.at, s.seq<<slotBits | uint64(i)})
	case ahead == 0:
		e.near.link(s, i, int(b&ringMask))
	case ahead < ringSize:
		e.far.link(s, i, int(b>>ringBits&ringMask))
	default:
		e.overflow.push(entry{s.at, s.seq<<slotBits | uint64(i)})
	}
}

// refill moves cur to the earliest non-empty bucket and that bucket's
// events into the empty heap. It reports false if no event is queued.
func (e *Engine) refill() bool {
	for len(e.heap) == 0 {
		if e.near.occ != 0 {
			p := bits.TrailingZeros64(e.near.occ)
			e.cur = e.cur&^ringMask | int64(p)
			e.requeueList(e.near.take(p))
			continue
		}
		var block int64
		switch {
		case e.far.occ != 0:
			// The far ring's occupied position nearest after cur's block.
			from := e.cur>>ringBits + 1
			block = from + int64(bits.TrailingZeros64(bits.RotateLeft64(e.far.occ, -int(from&ringMask))))
		case len(e.overflow) > 0:
			block = int64(e.overflow[0].at) >> (bucketShift + ringBits)
		default:
			return false
		}
		e.enterBlock(block)
	}
	return true
}

// enterBlock moves cur to the first bucket of block, the earliest block
// with a queued event, once the heap and the near ring are empty: the
// block's far list spreads into the heap and the near ring, and overflow
// events now within the far ring's reach move into it.
func (e *Engine) enterBlock(block int64) {
	e.cur = block << ringBits
	e.requeueList(e.far.take(int(block & ringMask)))
	for len(e.overflow) > 0 && int64(e.overflow[0].at)>>(bucketShift+ringBits) < block+ringSize {
		e.requeue(e.overflow.pop().slot())
	}
}

// requeueList requeues every event of the list whose first slot is
// first-1.
func (e *Engine) requeueList(first int32) {
	for i := first; i != 0; {
		next := e.slots[i-1].next
		e.requeue(int(i - 1))
		i = next
	}
}

// requeue places slot i's event anew, or frees the slot if the event was
// cancelled.
func (e *Engine) requeue(i int) {
	if e.slots[i].live {
		e.place(i)
	} else {
		e.drop(i)
	}
}

// drop frees the slot of a cancelled event leaving the queue.
func (e *Engine) drop(i int) {
	e.release(i)
	e.cancelled--
}

// alloc returns the lowest free slot, growing the slab if none is free.
// Lowest-first keeps the occupied slots packed at the front, so release
// can truncate the free tail.
func (e *Engine) alloc() int {
	for w := e.freeLo; w < len(e.free); w++ {
		if b := e.free[w]; b != 0 {
			e.freeLo = w
			e.free[w] = b & (b - 1)
			return w<<6 | bits.TrailingZeros64(b)
		}
	}
	i := len(e.slots)
	if i > slotMask {
		panic("sim: too many queued events")
	}
	e.slots = append(e.slots, slot{})
	if i>>6 == len(e.free) {
		e.free = append(e.free, 0)
	}
	e.freeLo = len(e.free) - 1
	return i
}

// release frees slot i of an event leaving the queue. A free tail is cut
// off the slab.
func (e *Engine) release(i int) {
	e.queued--
	e.slots[i] = slot{}
	n := len(e.slots) - 1
	if i != n {
		e.free[i>>6] |= 1 << (i & 63)
		e.freeLo = min(e.freeLo, i>>6)
		return
	}
	for n > 0 && e.free[(n-1)>>6]&(1<<((n-1)&63)) != 0 {
		n--
		e.free[n>>6] &^= 1 << (n & 63)
	}
	e.free = e.free[:(n+63)>>6]
	e.freeLo = min(e.freeLo, len(e.free))
	e.slots = shrunk(e.slots[:n], 2)
}

// shrunk re-allocates s at 1.25x its length once the length falls below
// 1/div of its capacity, so a burst of queued events does not pin its
// peak memory for the rest of the run.
func shrunk[T any](s []T, div int) []T {
	if c := cap(s); c > minShrinkCap && len(s) < c/div {
		return append(make([]T, 0, len(s)+len(s)/4), s...)
	}
	return s
}

// compact drops the cancelled events from every tier and frees their
// slots: the heaps are filtered and re-heapified in O(n), the ring lists
// relinked. Cancel runs it once they outnumber live ones, so it costs
// O(1) amortised per cancel.
func (e *Engine) compact() {
	e.heap = e.filter(e.heap)
	e.overflow = e.filter(e.overflow)
	e.prune(&e.near)
	e.prune(&e.far)
}

// filter returns q without its cancelled entries, re-heapified.
func (e *Engine) filter(q queue) queue {
	kept := q[:0]
	for _, x := range q {
		if e.slots[x.slot()].live {
			kept = append(kept, x)
		} else {
			e.drop(x.slot())
		}
	}
	kept.init()
	// Compaction routinely halves a heap, so it waits for a quarter.
	return shrunk(kept, 4)
}

// prune drops the cancelled events from every list of r; requeueing
// puts each live one back in the list it came from.
func (e *Engine) prune(r *ring) {
	for w := r.occ; w != 0; w &= w - 1 {
		e.requeueList(r.take(bits.TrailingZeros64(w)))
	}
}

// ring is ringSize lists of queued events, linked through slot.next.
type ring struct {
	head [ringSize]int32 // each list's first slot index + 1, 0 if empty
	occ  uint64          // bit p set: list p is non-empty
}

// link puts slot i, whose slot is s, at the front of list p.
func (r *ring) link(s *slot, i, p int) {
	s.next, r.head[p] = r.head[p], int32(i+1)
	r.occ |= 1 << p
}

// take empties list p and returns its first slot index + 1.
func (r *ring) take(p int) int32 {
	i := r.head[p]
	r.head[p], r.occ = 0, r.occ&^(1<<p)
	return i
}

// queue is a 4-ary min-heap of entries ordered by (at, key).
type queue []entry

// push adds x.
func (q *queue) push(x entry) {
	j := len(*q)
	*q = append(*q, x)
	h := *q
	for ; j > 0 && x.less(h[(j-1)/4]); j = (j - 1) / 4 {
		h[j] = h[(j-1)/4]
	}
	h[j] = x
}

// pop removes and returns the minimum entry.
func (q *queue) pop() entry {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	if n > 0 {
		h.down(0, last)
	}
	*q = shrunk(h, 4)
	return top
}

// init restores the heap order over the whole of q in O(n).
func (q queue) init() {
	for i := (len(q) - 2) / 4; len(q) > 1 && i >= 0; i-- {
		q.down(i, q[i])
	}
}

// down places x at position i or below, moving smaller children up.
func (q queue) down(i int, x entry) {
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
