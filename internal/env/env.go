// Package env defines the execution environment abstraction that lets the
// peer/Resource-Manager protocol logic (internal/node) run unchanged on
// two substrates:
//
//   - internal/netsim: a deterministic discrete-event network simulation
//     under virtual time, used by every experiment;
//   - internal/live: a real-time runtime where each node is a goroutine
//     with a serialized mailbox and messages travel over in-process
//     channels or TCP.
//
// A node is an Actor: single-threaded event handlers invoked with a
// Context. All node state may be touched only from those handlers; the
// runtimes guarantee serialization.
package env

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// NodeID identifies a node (peer) in the overlay. IDs are assigned by the
// runtime and are stable for the node's lifetime.
type NodeID int

// NoNode is the absent-node sentinel.
const NoNode NodeID = -1

// Message is any value sent between nodes. Messages must be treated as
// immutable after sending: the simulated runtime delivers them by
// reference. Messages crossing the TCP transport or recorded by the
// flight recorder must be in the internal/proto codec's message set.
type Message any

// Sized lets a message declare its payload size for bandwidth modeling;
// messages without it are assumed to be small control traffic.
type Sized interface {
	// SizeKB returns the payload size in kilobytes.
	SizeKB() float64
}

// Cancel is the handle of a pending timer. Its zero value is no timer.
// It is a value: fn is shared (under simulation, by every timer of an
// engine) and id names the timer, so arming one need not allocate.
type Cancel struct {
	fn func(id uint64) bool
	id uint64
}

// NewCancel returns the Cancel whose Cancel method calls fn(id).
func NewCancel(fn func(id uint64) bool, id uint64) Cancel { return Cancel{fn, id} }

// SimCancel returns the Cancel of an engine event.
func SimCancel(h sim.Handle) Cancel { return NewCancel(h.Canceller()) }

// Cancel stops the timer. It reports whether the timer was still
// pending. Calling it multiple times, or on the zero Cancel, is safe.
func (c Cancel) Cancel() bool { return c.fn != nil && c.fn(c.id) }

// Clock provides time and timers to protocol logic and to the scheduler.
// Under simulation, Now is virtual time; under the live runtime it is
// elapsed wall time since the runtime started.
type Clock interface {
	// Now returns the current time.
	Now() sim.Time
	// After schedules fn once, d from now, on the owning node's event
	// loop. Callbacks must not be invoked after the node has stopped.
	After(d sim.Time, fn func()) Cancel
}

// Context is the full environment handed to an Actor. It is valid only on
// the actor's own event loop.
type Context interface {
	Clock
	// Self returns this node's ID.
	Self() NodeID
	// Send delivers m to the given node, best-effort and asynchronous.
	// Sends to dead or unknown nodes vanish silently, like UDP.
	Send(to NodeID, m Message)
	// Rand returns this node's deterministic random stream.
	Rand() *rng.Rand
	// Logf records a diagnostic line tagged with the node and time.
	Logf(format string, args ...any)
}

// Actor is the protocol logic of one node.
type Actor interface {
	// Init runs once when the node starts, with its context.
	Init(ctx Context)
	// Receive handles one message. from is the sending node.
	Receive(from NodeID, m Message)
	// Stop runs when the node shuts down gracefully (not on crash).
	Stop()
}

// Every schedules fn to run repeatedly: first after delay, then every
// period, until the returned Cancel is called. It is built on Clock.After
// so it works on any runtime.
func Every(c Clock, delay, period sim.Time, fn func()) Cancel {
	if period <= 0 {
		panic("env: Every with non-positive period")
	}
	stopped := false
	var pending Cancel
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = c.After(period, tick)
		}
	}
	pending = c.After(delay, tick)
	return NewCancel(func(uint64) bool {
		if stopped {
			return false
		}
		stopped = true
		pending.Cancel()
		return true
	}, 0)
}

// SimClock adapts a bare *sim.Engine to Clock for components that run
// outside any node (e.g. workload generators driving a simulation).
type SimClock struct{ Eng *sim.Engine }

// Now implements Clock.
func (c SimClock) Now() sim.Time { return c.Eng.Now() }

// After implements Clock.
func (c SimClock) After(d sim.Time, fn func()) Cancel {
	return SimCancel(c.Eng.After(d, fn))
}
