// Package trace stands in for the tracer sink.
package trace

// Tracer is a run-wide sink, nil when tracing is off.
type Tracer struct{ n int }

// Instant records one event; it lacks the nil-receiver guard.
func (t *Tracer) Instant(name string) {
	t.n += len(name)
}
