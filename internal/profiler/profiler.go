// Package profiler implements the per-peer Profiler of §2/§3.2: it
// "measures the current processor and network load of the peer", producing
// the periodic reports that flow to the domain Resource Manager (§4.4
// intra-domain propagation). A report carries only what the Resource
// Manager reads: load, utilisation and bandwidth use.
//
// EWMA is the exponentially weighted moving average for smoothing a
// measured quantity, so a single noisy sample does not swing the Resource
// Manager's allocation decisions.
package profiler

import (
	"fmt"

	"repro/internal/sim"
)

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]; larger alpha weighs recent samples more.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA with the given alpha. It panics unless
// 0 < alpha <= 1.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("profiler: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds in a sample. The first sample initializes the average.
func (e *EWMA) Observe(v float64) {
	if !e.seen {
		e.value = v
		e.seen = true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Seen reports whether any sample has arrived.
func (e *EWMA) Seen() bool { return e.seen }

// Report is one profiler snapshot propagated to the Resource Manager
// (§3.2): what the RM folds into its view of the peer, the current load
// and bandwidth use, and when they were measured. The RM measures
// per-hop communication times itself, from heartbeat round trips.
type Report struct {
	Peer          int
	At            sim.Time
	Load          float64 // work units/s currently in service (l_i)
	Utilization   float64 // Load / Speed
	BandwidthKbps float64 // currently used network bandwidth (bw_i)
}

// Profiler accumulates local measurements for one peer.
type Profiler struct {
	peer  int
	speed float64

	load      float64
	bandwidth float64
}

// New returns a profiler for the given peer with processing power speed.
func New(peer int, speed float64) *Profiler {
	if speed <= 0 {
		panic("profiler: non-positive speed")
	}
	return &Profiler{peer: peer, speed: speed}
}

// SetLoad records the instantaneous processor load (work units/s in
// service). Negative values clamp to zero.
func (p *Profiler) SetLoad(load float64) {
	if load < 0 {
		load = 0
	}
	p.load = load
}

// AddLoad adjusts the load by delta (service start/stop).
func (p *Profiler) AddLoad(delta float64) { p.SetLoad(p.load + delta) }

// Load returns the current load.
func (p *Profiler) Load() float64 { return p.load }

// Utilization returns load/speed.
func (p *Profiler) Utilization() float64 { return p.load / p.speed }

// SetBandwidth records the instantaneous network use in Kbps.
func (p *Profiler) SetBandwidth(kbps float64) {
	if kbps < 0 {
		kbps = 0
	}
	p.bandwidth = kbps
}

// AddBandwidth adjusts bandwidth use by delta Kbps.
func (p *Profiler) AddBandwidth(delta float64) { p.SetBandwidth(p.bandwidth + delta) }

// Bandwidth returns the current bandwidth use in Kbps.
func (p *Profiler) Bandwidth() float64 { return p.bandwidth }

// Snapshot produces the report propagated to the Resource Manager.
func (p *Profiler) Snapshot(at sim.Time) Report {
	return Report{
		Peer:          p.peer,
		At:            at,
		Load:          p.load,
		Utilization:   p.load / p.speed,
		BandwidthKbps: p.bandwidth,
	}
}

// String renders the profiler state for diagnostics.
func (p *Profiler) String() string {
	return fmt.Sprintf("profiler(peer=%d load=%.2f bw=%.0fKbps)", p.peer, p.load, p.bandwidth)
}
