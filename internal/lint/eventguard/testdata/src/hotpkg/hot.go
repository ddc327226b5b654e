// Package core is a hot-path fixture (import path suffix
// internal/core): calls on *trace.Tracer and *metrics.Registry must be
// nil-guarded, and exported methods on Events must nil-guard their
// receiver.
package core

import (
	"p2plint.example/internal/metrics"
	"p2plint.example/internal/trace"
)

type Events struct {
	tr  *trace.Tracer
	reg *metrics.Registry
	n   int
}

// Tracer follows the declaration contract.
func (e *Events) Tracer() *trace.Tracer {
	if e == nil {
		return nil
	}
	return e.tr
}

// Count violates it: dereferences e without a guard.
func (e *Events) Count() int { // want `exported method Events\.Count must begin with a nil-receiver guard`
	return e.n
}

func guardedCalls(e *Events) {
	if tr := e.Tracer(); tr != nil {
		tr.Instant("ok", trace.A("k", 1))
	}
	tr := e.Tracer()
	if tr == nil {
		return
	}
	tr.Instant("also ok")
	if e.reg != nil {
		e.reg.Counter("p2p_x_total", "help", metrics.Labels{"domain": "0"}).Inc()
	}
}

func unguardedCalls(e *Events) {
	tr := e.Tracer()
	tr.Instant("boom")                        // want `call to \(\*p2plint\.example/internal/trace\.Tracer\)\.Instant is not nil-guarded`
	e.Tracer().Instant("chained")             // want `call to \(\*p2plint\.example/internal/trace\.Tracer\)\.Instant is not nil-guarded`
	e.reg.Counter("p2p_x_total", "help", nil) // want `call to \(\*p2plint\.example/internal/metrics\.Registry\)\.Counter is not nil-guarded`
}

func wrongGuard(e *Events, other *trace.Tracer) {
	tr := e.Tracer()
	if other != nil {
		tr.Instant("guarded the wrong value") // want `call to \(\*p2plint\.example/internal/trace\.Tracer\)\.Instant is not nil-guarded`
	}
	if tr == nil {
		_ = tr
	}
	tr.Instant("guard did not return") // want `call to \(\*p2plint\.example/internal/trace\.Tracer\)\.Instant is not nil-guarded`
}

func orGuard(e *Events, reg *metrics.Registry) {
	if e == nil || reg == nil {
		return
	}
	reg.Counter("p2p_y_total", "help", nil).Inc()
}

func allowHatch(e *Events) {
	tr := e.Tracer()
	//lint:ignore eventguard — fixture exercises the escape hatch
	tr.Instant("suppressed")
}

// DecisionLog mirrors the RM decision-audit ring: another run-wide sink
// whose exported methods must tolerate a nil (disabled) receiver.
type DecisionLog struct {
	buf   []string
	total uint64
}

// Add follows the contract.
func (l *DecisionLog) Add(action string) {
	if l == nil {
		return
	}
	l.buf = append(l.buf, action)
	l.total++
}

// Total violates it: dereferences l without a guard.
func (l *DecisionLog) Total() uint64 { // want `exported method DecisionLog\.Total must begin with a nil-receiver guard`
	return l.total
}
