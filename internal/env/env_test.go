package env

import (
	"testing"

	"repro/internal/sim"
)

func TestSimClock(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	if clk.Now() != 0 {
		t.Fatalf("Now = %v", clk.Now())
	}
	fired := false
	cancel := clk.After(10, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
	if cancel.Cancel() {
		t.Fatal("cancel after fire returned true")
	}
}

func TestSimClockCancel(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	fired := false
	cancel := clk.After(10, func() { fired = true })
	if !cancel.Cancel() {
		t.Fatal("cancel returned false on pending timer")
	}
	eng.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestZeroCancelIsNoTimer(t *testing.T) {
	var c Cancel
	if c.Cancel() || SimCancel(sim.Handle{}).Cancel() {
		t.Fatal("the zero Cancel reported a pending timer")
	}
}

// Arming and cancelling a SimClock timer with a callback bound
// beforehand allocates nothing: the Cancel is a value.
func TestSimClockTimerAllocatesNothing(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	fn := func() {}
	for range 64 {
		clk.After(1, fn)
	}
	eng.Run()
	if n := testing.AllocsPerRun(1000, func() { clk.After(1, fn).Cancel() }); n != 0 {
		t.Fatalf("%v allocs per timer", n)
	}
}

func TestEveryTicksAtPeriod(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	var ticks []sim.Time
	stop := Every(clk, 5, 10, func() { ticks = append(ticks, eng.Now()) })
	eng.RunUntil(36)
	stop.Cancel()
	eng.RunUntil(100)
	want := []sim.Time{5, 15, 25, 35}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	count := 0
	var stop Cancel
	stop = Every(clk, 1, 1, func() {
		count++
		if count == 3 {
			stop.Cancel()
		}
	})
	eng.RunUntil(100)
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestEveryStopFromCallbackLeavesNothingPending(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	var ticks []sim.Time
	var stop Cancel
	stop = Every(clk, 10, 5, func() {
		ticks = append(ticks, eng.Now())
		if len(ticks) == 4 {
			stop.Cancel()
		}
	})
	eng.RunUntil(1000)
	want := []sim.Time{10, 15, 20, 25}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after stop", eng.Pending())
	}
}

func TestEveryStopBeforeFirstTick(t *testing.T) {
	eng := sim.New()
	fired := false
	stop := Every(SimClock{Eng: eng}, 10, 5, func() { fired = true })
	stop.Cancel()
	eng.RunUntil(100)
	if fired {
		t.Fatal("stopped ticker fired")
	}
}

func TestEveryStopIdempotent(t *testing.T) {
	eng := sim.New()
	clk := SimClock{Eng: eng}
	stop := Every(clk, 1, 1, func() {})
	if !stop.Cancel() {
		t.Fatal("first stop returned false")
	}
	if stop.Cancel() {
		t.Fatal("second stop returned true")
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(period=0) did not panic")
		}
	}()
	Every(SimClock{Eng: sim.New()}, 1, 0, func() {})
}
