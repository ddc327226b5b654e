package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500µs"},
		{1500, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := FromSeconds(0.0000015); got != 2 { // rounds to nearest µs
		t.Fatalf("FromSeconds rounding = %v, want 2", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final clock = %v", e.Now())
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("nested After fired at %v, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.At(10, func() { fired = true })
	if !h.Cancel() {
		t.Fatal("Cancel on pending event returned false")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	h := e.At(10, func() {})
	e.Run()
	if h.Cancel() {
		t.Fatal("Cancel after firing returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after second run", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
}

func TestRunUntilSkipsDeadHead(t *testing.T) {
	e := New()
	h := e.At(10, func() {})
	fired := false
	e.At(20, func() { fired = true })
	h.Cancel()
	e.RunUntil(25)
	if !fired {
		t.Fatal("event behind cancelled head did not fire")
	}
}

func TestHalt(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

// Cancelling every pending event, at every queue size around the
// compaction threshold, leaves nothing pending and nothing to fire, and
// the engine keeps working afterwards.
func TestCancelEveryPendingEvent(t *testing.T) {
	for n := 1; n <= 200; n++ {
		e := New()
		hs := make([]Handle, n)
		for i := range hs {
			hs[i] = e.At(Time(i%7), func() { t.Fatalf("n=%d: cancelled event fired", n) })
		}
		for i, h := range hs {
			if !h.Cancel() {
				t.Fatalf("n=%d: Cancel %d on a pending event returned false", n, i)
			}
			if got := e.Pending(); got != n-i-1 {
				t.Fatalf("n=%d: Pending = %d after %d cancels", n, got, i+1)
			}
		}
		e.Run()
		if e.Fired() != 0 || e.Pending() != 0 {
			t.Fatalf("n=%d: Fired = %d, Pending = %d", n, e.Fired(), e.Pending())
		}
		fired := false
		e.After(1, func() { fired = true })
		e.Run()
		if !fired {
			t.Fatalf("n=%d: event scheduled after a full cancel did not fire", n)
		}
	}
}

// A handle whose event has fired or been cancelled cancels nothing, and
// in particular not the event that reuses its slot: after plain reuse,
// and after the slab has truncated, shrunk and regrown over the slot.
func TestStaleHandleSparesNewOccupant(t *testing.T) {
	e := New()
	fired := 0
	count := func() { fired++ }

	done := e.At(10, count)
	e.Run()
	cancelled := e.At(20, count)
	if !cancelled.Cancel() {
		t.Fatal("Cancel on a pending event returned false")
	}
	e.Run() // pops the dead entry, freeing its slot
	next := e.At(30, count)
	if done.id&slotMask != next.id&slotMask || cancelled.id&slotMask != next.id&slotMask {
		t.Fatalf("slots %d, %d, %d: the test no longer reuses one slot",
			done.id&slotMask, cancelled.id&slotMask, next.id&slotMask)
	}
	if done.Cancel() || cancelled.Cancel() {
		t.Fatal("a stale handle cancelled its slot's new occupant")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}

	const n = 4 * minShrinkCap
	old := make([]Handle, n)
	for i := range old {
		old[i] = e.After(Time(i), count)
	}
	grown := cap(e.slots)
	for i := n - 1; i >= 0; i-- { // newest first, so the tail is cut each time
		old[i].Cancel()
	}
	e.Run()
	if len(e.slots) != 0 || cap(e.slots) >= grown {
		t.Fatalf("slab len %d cap %d after draining from cap %d: no shrink", len(e.slots), cap(e.slots), grown)
	}
	fired = 0
	for i := range n {
		e.After(Time(i), count)
	}
	for i, h := range old {
		if h.Cancel() {
			t.Fatalf("handle %d cancelled the event in its regrown slot", i)
		}
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d of %d events in the regrown slab", fired, n)
	}
	if (Handle{}).Cancel() {
		t.Fatal("the zero Handle cancelled something")
	}
}

// Scheduling and firing an event allocates nothing once the slab and
// heap have grown: a typed event with a pointer payload, and a callback
// bound beforehand.
func TestScheduleAndFireAllocateNothing(t *testing.T) {
	e := New()
	var got *int
	e.SetTarget(func(ev Event) { got = ev.X.(*int) })
	msg := new(int)
	fn := func() {}
	for range 64 {
		e.Schedule(e.Now()+1, Event{X: msg, A: 1, Kind: 1})
		e.After(1, fn)
	}
	e.Run()
	typed := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, Event{X: msg, A: 1, B: 2, Kind: 1})
		e.Step()
	})
	callback := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if typed != 0 || callback != 0 || got != msg {
		t.Fatalf("allocs per typed event %v, per callback %v; payload %p, want %p", typed, callback, got, msg)
	}
}

func TestScheduleWithoutTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a typed event without a target did not panic")
		}
	}()
	New().Schedule(0, Event{Kind: 1})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Property: for any set of scheduled delays, events fire in nondecreasing
// time order and the engine fires exactly the scheduled count.
func TestPropertyOrdering(t *testing.T) {
	check := func(delays []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range delays {
			e.After(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineTimers models the DHT's RPC timers: every request arms a
// 2 s timeout, and four replies in five cancel it 1–50 ms later. A request
// leaves every 250 µs of virtual time, so about 8k timeouts are armed at
// once. A reply is a typed event naming its request, as a netsim delivery
// is. One op is one request and the virtual time up to the next.
func BenchmarkEngineTimers(b *testing.B) {
	e := New()
	r := rng.New(1)
	var timeouts [256]Handle // by request number; 50 ms holds 200 requests
	e.SetTarget(func(ev Event) { timeouts[ev.A].Cancel() })
	expire := func() {}
	next := 0
	request := func() {
		slot := next % len(timeouts)
		next++
		timeouts[slot] = e.After(2*Second, expire)
		if r.Intn(5) != 0 {
			e.Schedule(e.Now()+Time(1+r.Intn(50))*Millisecond, Event{A: int32(slot), Kind: 1})
		}
		e.RunUntil(e.Now() + 250*Microsecond)
	}
	for i := 0; i < int(2*Second/(250*Microsecond)); i++ { // reach steady state
		request()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}

// BenchmarkEngineUpkeep models a churning overlay's steady state, where
// periodic upkeep is most of the events: 288 nodes, joined 20 ms apart,
// each re-arm two timers at each of the 0.5, 1, 2 and 3 s periods, and
// every firing sends a message that a typed event delivers 10–12 ms
// later. About 2 300 events are pending. One op is one event fired.
func BenchmarkEngineUpkeep(b *testing.B) {
	const nodes = 288
	e := New()
	r := rng.New(1)
	delivered := 0
	e.SetTarget(func(Event) { delivered++ })
	periods := [...]Time{500 * Millisecond, Second, 2 * Second, 3 * Second}
	for n := range nodes {
		join := Time(n) * 20 * Millisecond
		for k := range 2 * len(periods) {
			period := periods[k%len(periods)]
			var tick func()
			tick = func() {
				e.After(period, tick)
				e.Schedule(e.Now()+10*Millisecond+Time(r.Intn(2001)), Event{A: int32(n), Kind: 1})
			}
			e.At(join+Time(k)*Millisecond, tick)
		}
	}
	e.RunUntil(nodes*20*Millisecond + 3*Second) // every node joined and every period fired
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if p := e.Pending(); p < 2300 || p > 2400 || delivered == 0 {
		b.Fatalf("%d events pending, %d delivered", p, delivered)
	}
}
