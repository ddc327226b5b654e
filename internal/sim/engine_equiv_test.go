package sim

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// refEngine is the container/heap engine the inline 4-ary heap replaced,
// kept test-only as its oracle. Cancelled events stay queued, marked
// dead, until they reach the head.
type refEngine struct {
	now    Time
	seq    uint64
	queue  refQueue
	fired  uint64
	halted bool
	target func(Event)
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, -1 once popped
	dead  bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

func (e *refEngine) Now() Time     { return e.now }
func (e *refEngine) Fired() uint64 { return e.fired }
func (e *refEngine) Halt()         { e.halted = true }

// live counts the queued events that are not cancelled.
func (e *refEngine) live() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

func (e *refEngine) schedule(at Time, fn func()) func() bool {
	if at < e.now {
		panic("ref: scheduling in the past")
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return func() bool {
		if ev.dead || ev.index < 0 {
			return false
		}
		ev.dead = true
		return true
	}
}

// scheduleTyped queues a typed event as the callback that hands it to
// the target, which is what the engine's typed path must amount to.
func (e *refEngine) scheduleTyped(at Time, ev Event) func() bool {
	return e.schedule(at, func() { e.target(ev) })
}

func (e *refEngine) setTarget(fn func(Event)) { e.target = fn }

func (e *refEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted {
		for len(e.queue) > 0 && e.queue[0].dead {
			heap.Pop(&e.queue)
		}
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *refEngine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// scriptEngine is the surface an engine script drives.
type scriptEngine interface {
	Now() Time
	Fired() uint64
	Halt()
	Step() bool
	RunUntil(Time)
	Run()
	schedule(at Time, fn func()) func() bool
	scheduleTyped(at Time, ev Event) func() bool
	setTarget(fn func(Event))
	live() int
}

// engineUnderTest adapts Engine to scriptEngine, checks its tiers and
// cancelled count, and counts compactions and those that left the queue
// empty.
type engineUnderTest struct {
	*Engine
	t           *testing.T
	compactions int
	emptied     int
}

func (e *engineUnderTest) live() int { return e.Pending() }

func (e *engineUnderTest) schedule(at Time, fn func()) func() bool {
	return e.cancelFunc(e.At(at, fn))
}

func (e *engineUnderTest) scheduleTyped(at Time, ev Event) func() bool {
	return e.cancelFunc(e.Schedule(at, ev))
}

func (e *engineUnderTest) setTarget(fn func(Event)) { e.SetTarget(fn) }

// cancelFunc cancels h, counting the compactions the cancel triggers;
// a compaction must leave no cancelled event in any tier.
func (e *engineUnderTest) cancelFunc(h Handle) func() bool {
	return func() bool {
		before := e.queued
		ok := h.Cancel()
		if e.queued < before {
			if e.cancelled != 0 {
				e.t.Fatalf("compaction left %d cancelled events queued", e.cancelled)
			}
			e.compactions++
			if e.queued == 0 {
				e.emptied++
			}
		}
		return ok
	}
}

// check verifies the queue and the slab after every op:
//   - each tier holds only the buckets it owns: the heap buckets up to
//     cur, the near ring the later buckets of cur's block, each in its
//     own list, the far ring the next ringSize-1 blocks, each in its own
//     list, and the overflow heap every later block;
//   - both heaps are ordered by (at, seq), a ring's occupancy bits mark
//     exactly its non-empty lists, and a slot in a heap links nowhere;
//   - each queued event owns one slot, which holds its time and seq,
//     queued counts them all and cancelled the ones no longer live;
//   - every other slot is free and zeroed, the free bitmap marks exactly
//     those below the slab's length, and the slab ends in an owned slot.
func (e *engineUnderTest) check() {
	e.t.Helper()
	dead, n := 0, 0
	owned := make([]bool, len(e.slots))
	own := func(tier string, i int) *slot {
		if i >= len(e.slots) || owned[i] {
			e.t.Fatalf("%s: slot %d out of range or shared", tier, i)
		}
		owned[i] = true
		n++
		s := &e.slots[i]
		if !s.live {
			dead++
		}
		return s
	}
	curBlock := e.cur >> ringBits
	heapOf := func(tier string, q queue, ok func(b int64) bool) {
		for i, x := range q {
			s := own(tier, x.slot())
			if s.at != x.at || s.seq != x.key>>slotBits || s.next != 0 {
				e.t.Fatalf("%s entry %d: slot %+v, entry at %d seq %d", tier, i, *s, x.at, x.key>>slotBits)
			}
			if b := int64(x.at) >> bucketShift; !ok(b) {
				e.t.Fatalf("%s entry %d: bucket %d, cur %d", tier, i, b, e.cur)
			}
			if i > 0 && x.less(q[(i-1)/4]) {
				e.t.Fatalf("%s: heap order broken at %d", tier, i)
			}
		}
	}
	heapOf("heap", e.heap, func(b int64) bool { return b <= e.cur })
	heapOf("overflow", e.overflow, func(b int64) bool { return b>>ringBits >= curBlock+ringSize })
	ringOf := func(tier string, r *ring, ok func(b int64, p int) bool) {
		for p, head := range r.head {
			if (head != 0) != (r.occ&(1<<p) != 0) {
				e.t.Fatalf("%s %d: head %d, occupancy %b", tier, p, head, r.occ)
			}
			for i := head; i != 0; i = e.slots[i-1].next {
				s := own(tier, int(i-1))
				if b := int64(s.at) >> bucketShift; !ok(b, p) {
					e.t.Fatalf("%s %d: slot %d at bucket %d, cur %d", tier, p, i-1, b, e.cur)
				}
			}
		}
	}
	ringOf("near", &e.near, func(b int64, p int) bool {
		return b > e.cur && b>>ringBits == curBlock && b&ringMask == int64(p)
	})
	ringOf("far", &e.far, func(b int64, p int) bool {
		ahead := b>>ringBits - curBlock
		return ahead > 0 && ahead < ringSize && (b>>ringBits)&ringMask == int64(p)
	})
	if n != e.queued || dead != e.cancelled {
		e.t.Fatalf("queued = %d, cancelled = %d; %d events queued, %d dead", e.queued, e.cancelled, n, dead)
	}
	if len(e.free) != (len(e.slots)+63)/64 {
		e.t.Fatalf("%d bitmap words for %d slots", len(e.free), len(e.slots))
	}
	for i := range len(e.free) * 64 {
		free := e.free[i/64]&(1<<(i%64)) != 0
		switch {
		case i >= len(e.slots):
			if free {
				e.t.Fatalf("bit %d set past the slab's end %d", i, len(e.slots))
			}
		case free == owned[i]:
			e.t.Fatalf("slot %d: free bit %v, owned %v", i, free, owned[i])
		case free && e.slots[i] != (slot{}):
			e.t.Fatalf("free slot %d not zeroed: %+v", i, e.slots[i])
		case free && i/64 < e.freeLo:
			e.t.Fatalf("free slot %d below the hint word %d", i, e.freeLo)
		}
	}
	if n := len(e.slots); n > 0 && !owned[n-1] {
		e.t.Fatalf("slab ends in free slot %d", n-1)
	}
}

// scriptShape sets what one script emphasises.
type scriptShape struct {
	name   string
	ops    int
	spread int // scheduling offsets are drawn from [0, spread)
	batch  int // largest batch scheduled by one op
	cancel int // out of 10: how often an op cancels rather than runs
}

var scriptShapes = []scriptShape{
	{name: "ties", ops: 400, spread: 3, batch: 12, cancel: 3},
	{name: "sparse", ops: 400, spread: 5000, batch: 6, cancel: 3},
	{name: "compaction", ops: 300, spread: 2000, batch: 300, cancel: 6},
	// Spreads past one bucket (1.024 ms), one block (65.5 ms) and the far
	// ring's reach (about 4.1 s), so events cross every tier boundary.
	{name: "buckets", ops: 400, spread: 40 * int(Millisecond), batch: 12, cancel: 3},
	{name: "horizon", ops: 400, spread: 12 * int(Second), batch: 8, cancel: 3},
	{name: "far-compaction", ops: 300, spread: 9 * int(Second), batch: 300, cancel: 6},
}

// script drives one engine from an rng stream. Handlers also draw from
// the stream, so two engines stay in step only while they fire the same
// events in the same order; the log records every observable result.
type script struct {
	shape   scriptShape
	r       *rng.Rand
	eng     scriptEngine
	cancels []func() bool
	times   []Time
	log     []string
	check   func() // run after every op
}

func (s *script) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

// schedule queues event id at at: a func() callback, or one time in
// three a typed event whose payload the target logs before firing it.
func (s *script) schedule(at Time) {
	id := len(s.cancels)
	s.times = append(s.times, at)
	var cancel func() bool
	switch k := s.r.Intn(6); k {
	case 0, 1, 2, 3:
		cancel = s.eng.schedule(at, func() { s.fire(id) })
	default:
		ev := Event{A: int32(id), B: int32(s.r.Intn(1000)) - 500, Kind: uint8(1 + s.r.Intn(3))}
		switch ev.Kind {
		case 1:
			ev.X = &s.times[id] // a pointer payload
		case 2:
			ev.X = fmt.Sprint("msg", id)
		}
		cancel = s.eng.scheduleTyped(at, ev)
	}
	s.cancels = append(s.cancels, cancel)
}

// dispatch is the typed events' target.
func (s *script) dispatch(ev Event) {
	payload := "nil"
	switch x := ev.X.(type) {
	case *Time:
		payload = fmt.Sprint("at ", *x)
	case string:
		payload = x
	}
	s.logf("typed kind %d b %d payload %s", ev.Kind, ev.B, payload)
	s.fire(int(ev.A))
}

func (s *script) cancel(id int) {
	s.logf("cancel %d %v", id, s.cancels[id]())
}

// fire is every event's handler: it logs, then sometimes schedules,
// cancels (itself or another event) or halts the run.
func (s *script) fire(id int) {
	now := s.eng.Now()
	s.logf("fire %d at %d fired %d live %d", id, now, s.eng.Fired(), s.eng.live())
	switch k := s.r.Intn(20); {
	case k < 3:
		s.schedule(now) // After(0)
	case k < 5:
		s.schedule(now + Time(s.r.Intn(s.shape.spread)))
	case k < 6:
		s.cancel(id) // its own handle: already fired
	case k < 9:
		s.cancel(s.r.Intn(len(s.cancels)))
	case k < 10:
		s.eng.Halt()
	}
}

func (s *script) run() {
	for op := 0; op < s.shape.ops; op++ {
		switch k := s.r.Intn(10); {
		case k < 3:
			for n := 1 + s.r.Intn(s.shape.batch); n > 0; n-- {
				s.schedule(s.eng.Now() + Time(s.r.Intn(s.shape.spread)))
			}
		case k < 3+s.shape.cancel && len(s.cancels) > 0:
			for n := 1 + s.r.Intn(s.shape.batch); n > 0; n-- {
				s.cancel(s.r.Intn(len(s.cancels)))
			}
		case k == 9 && s.r.Intn(4) == 0:
			for id := range s.cancels { // cancel every pending event
				s.cancel(id)
			}
		default:
			s.advance()
		}
		s.logf("op %d now %d fired %d live %d", op, s.eng.Now(), s.eng.Fired(), s.eng.live())
		s.check()
	}
	s.eng.Run()
	for s.eng.live() > 0 { // runs halted by a handler resume here
		s.eng.Run()
	}
	s.logf("end now %d fired %d live %d", s.eng.Now(), s.eng.Fired(), s.eng.live())
}

// advance moves the clock: one Step, a RunUntil whose deadline falls
// between event times, exactly on one, at now, inside the widest stretch
// with no event or past every event, or a full Run.
func (s *script) advance() {
	switch k := s.r.Intn(12); {
	case k < 3:
		s.logf("step %v", s.eng.Step())
	case k < 6:
		s.eng.RunUntil(s.eng.Now() + Time(s.r.Intn(s.shape.spread)))
	case k < 8:
		at := s.times[s.r.Intn(len(s.times))]
		if at < s.eng.Now() {
			at = s.eng.Now()
		}
		s.eng.RunUntil(at)
	case k < 9:
		s.eng.RunUntil(s.eng.Now())
	case k < 10:
		s.eng.RunUntil(s.emptyStretch())
	case k < 11:
		s.eng.RunUntil(slices.Max(s.times) + Time(1+s.r.Intn(s.shape.spread)))
	default:
		s.eng.Run()
	}
}

// emptyStretch returns a time inside the widest gap after now between
// scheduled times. Every queued event's time is among them, so no event
// falls in the gap.
func (s *script) emptyStretch() Time {
	ahead := []Time{s.eng.Now()}
	for _, at := range s.times {
		if at > s.eng.Now() {
			ahead = append(ahead, at)
		}
	}
	slices.Sort(ahead)
	lo, gap := ahead[0], Time(0)
	for i := 1; i < len(ahead); i++ {
		if d := ahead[i] - ahead[i-1]; d > gap {
			lo, gap = ahead[i-1], d
		}
	}
	if gap < 2 {
		return lo
	}
	return lo + 1 + Time(s.r.Intn(int(gap-1)))
}

// TestEngineMatchesReference drives the engine and the container/heap
// reference with the same rng-seeded scripts, mixing func() callbacks
// with typed events (which the reference runs as callbacks into the
// target), and requires the same fired sequence and payloads, clock,
// Fired count, Cancel results and live count throughout.
func TestEngineMatchesReference(t *testing.T) {
	compactions, emptied := 0, 0
	for _, shape := range scriptShapes {
		for seed := uint64(1); seed <= 8; seed++ {
			ref := &script{shape: shape, r: rng.New(seed), eng: &refEngine{}, check: func() {}}
			eut := &engineUnderTest{Engine: New(), t: t}
			got := &script{shape: shape, r: rng.New(seed), eng: eut, check: eut.check}
			ref.eng.setTarget(ref.dispatch)
			got.eng.setTarget(got.dispatch)
			ref.schedule(0) // every script starts with an event to run
			got.schedule(0)
			ref.run()
			got.run()
			eut.check()
			compactions += eut.compactions
			emptied += eut.emptied
			if len(ref.log) != len(got.log) {
				t.Errorf("%s seed %d: %d log lines, reference %d", shape.name, seed, len(got.log), len(ref.log))
			}
			for i := range min(len(ref.log), len(got.log)) {
				if ref.log[i] != got.log[i] {
					t.Fatalf("%s seed %d: line %d = %q, reference %q", shape.name, seed, i, got.log[i], ref.log[i])
				}
			}
		}
	}
	t.Logf("%d compactions, %d left the queue empty", compactions, emptied)
	if compactions < 20 || emptied == 0 {
		t.Fatalf("%d compactions, %d to an empty queue: the scripts no longer cross the threshold", compactions, emptied)
	}
}
