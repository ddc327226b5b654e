// Package sched implements the peer-local real-time scheduling layer
// (§2): every peer's Local Scheduler "determines the execution sequence
// of the applications at the peer". The paper's system uses Least Laxity
// Scheduling (LLS); this package provides LLS plus the comparison
// policies the E5 experiment sweeps (EDF, FIFO, SJF, static
// importance-priority).
//
// A Processor simulates one peer's CPU on the discrete-event engine:
// preemptive, event-driven (re-evaluation at arrivals and completions,
// plus exact laxity-crossing preemption points for LLS), with per-task
// deadline accounting.
package sched

import (
	"fmt"
	"math"

	"repro/internal/env"
	"repro/internal/sim"
)

// TaskID identifies a schedulable unit of work on one processor.
type TaskID int64

// Task is one unit of processor work with soft real-time requirements.
// Work is expressed in abstract work units; a Processor with speed s
// executes w units in w/s seconds.
type Task struct {
	ID         TaskID
	Release    sim.Time // arrival at this processor
	Deadline   sim.Time // absolute completion deadline
	Work       float64  // total work units
	Importance int      // higher = more important (§3.3 Importance_t)

	remaining float64
}

// Remaining returns the work units left.
func (t *Task) Remaining() float64 { return t.remaining }

// Laxity returns deadline - now - remaining/speed: the slack before the
// task can no longer finish on time. Negative laxity means the deadline
// will be missed even with immediate exclusive service.
func (t *Task) Laxity(now sim.Time, speed float64) sim.Time {
	execLeft := sim.Time(t.remaining / speed * 1e6)
	return t.Deadline - now - execLeft
}

// Policy orders ready tasks. Implementations must be deterministic: ties
// are broken by the caller using arrival order.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Less reports whether a should run before b.
	Less(a, b *Task, now sim.Time, speed float64) bool
	// PreemptAt returns the earliest future instant at which the relative
	// order of running vs. a queued task can invert without any new
	// arrival or completion, or 0 if it cannot. Only LLS needs this: a
	// queued task's laxity shrinks while the running task's is constant.
	// queued is the processor's scratch slice, valid only for the call.
	PreemptAt(running *Task, queued []*Task, now sim.Time, speed float64) sim.Time
}

// LLS is Least Laxity Scheduling (§2): the task with the smallest laxity
// runs first, preempting when a queued task's laxity falls below the
// running task's.
type LLS struct{}

// Name implements Policy.
func (LLS) Name() string { return "LLS" }

// Less implements Policy.
func (LLS) Less(a, b *Task, now sim.Time, speed float64) bool {
	return a.Laxity(now, speed) < b.Laxity(now, speed)
}

// PreemptAt implements Policy: while a task runs its laxity is constant,
// but every queued task's laxity decreases at rate 1, so a queued task
// with currently larger laxity crosses at a computable instant.
func (LLS) PreemptAt(running *Task, queued []*Task, now sim.Time, speed float64) sim.Time {
	lr := running.Laxity(now, speed)
	var earliest sim.Time
	for _, q := range queued {
		lq := q.Laxity(now, speed)
		if lq <= lr {
			continue // would already have preempted; caller re-picks at events
		}
		// One tick past the equal-laxity instant, so the queued task is
		// strictly smaller and wins the re-pick.
		cross := now + (lq - lr) + 1
		if earliest == 0 || cross < earliest {
			earliest = cross
		}
	}
	return earliest
}

// EDF is Earliest Deadline First. The relative order of tasks never
// changes between events, so no timed preemption points are needed.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "EDF" }

// Less implements Policy.
func (EDF) Less(a, b *Task, now sim.Time, speed float64) bool {
	return a.Deadline < b.Deadline
}

// PreemptAt implements Policy.
func (EDF) PreemptAt(*Task, []*Task, sim.Time, float64) sim.Time { return 0 }

// FIFO runs tasks in arrival order without preemption by later arrivals.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Less implements Policy.
func (FIFO) Less(a, b *Task, now sim.Time, speed float64) bool {
	return a.Release < b.Release
}

// PreemptAt implements Policy.
func (FIFO) PreemptAt(*Task, []*Task, sim.Time, float64) sim.Time { return 0 }

// SJF is Shortest Remaining Work First. The running task only gets
// shorter, so its priority only improves between events.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "SJF" }

// Less implements Policy.
func (SJF) Less(a, b *Task, now sim.Time, speed float64) bool {
	return a.remaining < b.remaining
}

// PreemptAt implements Policy.
func (SJF) PreemptAt(*Task, []*Task, sim.Time, float64) sim.Time { return 0 }

// Priority is static importance-based scheduling (highest Importance
// first), the value-based comparator from the related work (§5).
type Priority struct{}

// Name implements Policy.
func (Priority) Name() string { return "PRIO" }

// Less implements Policy.
func (Priority) Less(a, b *Task, now sim.Time, speed float64) bool {
	return a.Importance > b.Importance
}

// PreemptAt implements Policy.
func (Priority) PreemptAt(*Task, []*Task, sim.Time, float64) sim.Time { return 0 }

// Completion reports one finished task.
type Completion struct {
	Task     *Task
	Finished sim.Time
	Missed   bool // finished after its deadline
}

// Stats aggregates a processor's history.
type Stats struct {
	Completed     int
	Missed        int
	BusyMicros    sim.Time
	TotalLateness sim.Time // sum of max(0, finish-deadline)
}

// MissRatio returns missed/completed, or 0 with no completions.
func (s Stats) MissRatio() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Completed)
}

// Processor simulates one peer CPU under a scheduling policy. All methods
// must be called from engine events (single-threaded simulation).
type Processor struct {
	clk    env.Clock
	speed  float64
	policy Policy

	ready      []*Task // all admitted incomplete tasks, including running
	running    *Task
	runStart   sim.Time
	completion env.Cancel
	preempt    env.Cancel

	// The timer callbacks, bound once, and reschedule's scratch list of
	// the tasks not picked to run.
	completeFn, rescheduleFn func()
	queued                   []*Task

	stats      Stats
	OnComplete func(Completion)

	// Quantum is the minimum interval between timed laxity-crossing
	// preemptions. Pure LLS degenerates into per-tick thrashing when two
	// tasks' laxities are nearly equal (a well-known property of the
	// algorithm); the quantum turns that case into bounded round-robin.
	// Arrival- and completion-driven rescheduling is unaffected.
	Quantum sim.Time
}

// DefaultQuantum bounds LLS laxity-crossing preemption frequency.
const DefaultQuantum = 10 * sim.Millisecond

// NewProcessor creates a processor with the given speed (work units per
// second) and policy, driven by clock clk. All methods must be called
// from the clock's event loop (engine events under simulation, the node
// mailbox under the live runtime).
func NewProcessor(clk env.Clock, speed float64, policy Policy) *Processor {
	if speed <= 0 {
		panic("sched: non-positive processor speed")
	}
	p := &Processor{clk: clk, speed: speed, policy: policy, Quantum: DefaultQuantum}
	p.completeFn, p.rescheduleFn = p.complete, p.reschedule
	return p
}

// cancelTimer cancels c and clears it.
func cancelTimer(c *env.Cancel) {
	c.Cancel()
	*c = env.Cancel{}
}

// Speed returns the processor speed in work units per second.
func (p *Processor) Speed() float64 { return p.speed }

// Policy returns the active scheduling policy.
func (p *Processor) Policy() Policy { return p.policy }

// Stats returns a copy of the accumulated statistics.
func (p *Processor) Stats() Stats { return p.stats }

// QueueLength returns the number of admitted incomplete tasks.
func (p *Processor) QueueLength() int { return len(p.ready) }

// Utilization returns busy time / elapsed time since the start of the
// simulation (including current in-progress execution).
func (p *Processor) Utilization() float64 {
	now := p.clk.Now()
	if now == 0 {
		return 0
	}
	busy := p.stats.BusyMicros
	if p.running != nil {
		busy += now - p.runStart
	}
	return float64(busy) / float64(now)
}

// Add admits a task. Work must be positive.
func (p *Processor) Add(t *Task) {
	if t.Work <= 0 {
		panic("sched: task with non-positive work")
	}
	t.remaining = t.Work
	if t.Release == 0 {
		t.Release = p.clk.Now()
	}
	p.ready = append(p.ready, t)
	p.reschedule()
}

// Remove aborts an incomplete task (e.g. its session was torn down or
// reassigned to another peer, §4.5). It reports whether the task was
// found, and returns the work units still remaining.
func (p *Processor) Remove(id TaskID) (float64, bool) {
	for i, t := range p.ready {
		if t.ID == id {
			if p.running == t {
				p.chargeProgress()
				p.running = nil
				cancelTimer(&p.completion)
				cancelTimer(&p.preempt)
			}
			rem := t.remaining
			p.ready = append(p.ready[:i], p.ready[i+1:]...)
			p.reschedule()
			return rem, true
		}
	}
	return 0, false
}

// chargeProgress folds the running task's progress since runStart into
// its remaining work and the busy-time statistic.
func (p *Processor) chargeProgress() {
	if p.running == nil {
		return
	}
	elapsed := p.clk.Now() - p.runStart
	p.running.remaining -= float64(elapsed) / 1e6 * p.speed
	if p.running.remaining < 0 {
		p.running.remaining = 0
	}
	p.stats.BusyMicros += elapsed
	p.runStart = p.clk.Now()
}

// pick returns the policy's choice among ready tasks, breaking ties by
// arrival order then ID for determinism.
func (p *Processor) pick() *Task {
	best := p.ready[0]
	for _, t := range p.ready[1:] {
		if p.policy.Less(t, best, p.clk.Now(), p.speed) {
			best = t
		} else if !p.policy.Less(best, t, p.clk.Now(), p.speed) {
			// Tie under the policy: earlier release, then smaller ID.
			if t.Release < best.Release || (t.Release == best.Release && t.ID < best.ID) {
				best = t
			}
		}
	}
	return best
}

// reschedule re-evaluates the running choice after any state change.
func (p *Processor) reschedule() {
	p.chargeProgress()
	cancelTimer(&p.completion)
	cancelTimer(&p.preempt)
	p.running = nil
	if len(p.ready) == 0 {
		return
	}
	next := p.pick()
	p.running = next
	p.runStart = p.clk.Now()
	// Round up so the completion event never fires with work left over.
	execLeft := sim.Time(math.Ceil(next.remaining / p.speed * 1e6))
	if execLeft < 1 {
		execLeft = 1 // sub-microsecond remainder still takes one tick
	}
	p.completion = p.clk.After(execLeft, p.completeFn)

	// Timed preemption point (LLS only): the earliest instant a queued
	// task's priority overtakes the running task's.
	queued := p.queued[:0]
	for _, t := range p.ready {
		if t != next {
			queued = append(queued, t)
		}
	}
	p.queued = queued
	if len(queued) > 0 {
		now := p.clk.Now()
		if at := p.policy.PreemptAt(next, queued, now, p.speed); at > now {
			if min := now + p.Quantum; at < min {
				at = min
			}
			p.preempt = p.clk.After(at-now, p.rescheduleFn)
		}
		clear(queued) // hold no finished task until the next call
	}
}

// complete fires when the running task's remaining work reaches zero.
func (p *Processor) complete() {
	t := p.running
	p.chargeProgress()
	p.running = nil
	p.completion = env.Cancel{}
	cancelTimer(&p.preempt)
	for i, rt := range p.ready {
		if rt == t {
			p.ready = append(p.ready[:i], p.ready[i+1:]...)
			break
		}
	}
	now := p.clk.Now()
	missed := now > t.Deadline
	p.stats.Completed++
	if missed {
		p.stats.Missed++
		p.stats.TotalLateness += now - t.Deadline
	}
	if p.OnComplete != nil {
		p.OnComplete(Completion{Task: t, Finished: now, Missed: missed})
	}
	p.reschedule()
}

// String summarizes the processor state.
func (p *Processor) String() string {
	return fmt.Sprintf("proc(speed=%.1f policy=%s queue=%d completed=%d missed=%d)",
		p.speed, p.policy.Name(), len(p.ready), p.stats.Completed, p.stats.Missed)
}
