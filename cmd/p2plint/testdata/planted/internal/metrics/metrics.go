// Package metrics stands in for the metrics registry.
package metrics

// Registry is a run-wide sink, nil when metrics are off.
type Registry struct{}

// Labels are metric label pairs.
type Labels map[string]string

// Counter names a counter.
func (r *Registry) Counter(name, help string, l Labels) {}
