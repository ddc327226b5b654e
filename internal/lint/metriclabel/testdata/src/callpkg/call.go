// Package callpkg exercises the metric name/label cardinality checker.
package callpkg

import (
	"p2plint.example/internal/metrics"
)

// MetricAdmitted mirrors the repo convention: names are package-level
// constants.
const MetricAdmitted = "p2p_sessions_admitted_total"

// MetricDecisions mirrors the RM decision-audit counter, whose "result"
// label carries the decision action.
const MetricDecisions = "p2p_rm_decisions_total"

func constantNames(r *metrics.Registry, domain string) {
	r.Counter(MetricAdmitted, "Sessions composed.", metrics.Labels{"domain": domain}).Inc()
	r.Gauge("p2p_peer_load", "Profiled load.", metrics.Labels{"domain": domain, "peer": "1"}).Set(1)
	r.Histogram("p2p_alloc_seconds", "Alloc cost.", nil, nil).Observe(0.1)
	r.Gauge("trace_sessions_open", "Open trace spans.", nil).Set(3)
}

func decisionCounter(r *metrics.Registry, domain, action string) {
	// "result" is in the bounded set; the action string is a label
	// value, which stays free.
	r.Counter(MetricDecisions, "RM decisions.", metrics.Labels{"domain": domain, "result": action}).Inc()
}

// MetricDropped mirrors the live transport's per-reason drop counter;
// the "reason" label distinguishes shed causes (queue_full, no_credit,
// ...).
const MetricDropped = "live_transport_dropped_total"

// dropReason mirrors live.DropReason: the label value comes from a
// String() method, not a literal.
type dropReason int

func (d dropReason) String() string {
	if d == 0 {
		return "queue_full"
	}
	return "no_credit"
}

func dropCounters(r *metrics.Registry) {
	// "reason" is in the bounded set; the value — including the credit
	// backpressure reason no_credit — is a label value and stays free.
	// Mirrors the transport's per-reason registration loop.
	for d := dropReason(0); d < 2; d++ {
		r.Counter(MetricDropped, "Dropped, by reason.", metrics.Labels{"reason": d.String()}).Inc()
	}
}

func decisionBadKey(r *metrics.Registry, action string) {
	r.Counter(MetricDecisions, "RM decisions.", metrics.Labels{"action": action}).Inc() // want `metrics\.Labels key "action" is outside the bounded label set`
}

func dynamicName(r *metrics.Registry, taskID string) {
	r.Counter("p2p_task_"+taskID, "per-task counter", nil).Inc() // want `metric name argument to Registry\.Counter must be a compile-time constant`
}

func dynamicHelp(r *metrics.Registry, help string) {
	r.Counter(MetricAdmitted, help, nil).Inc() // want `metric help argument to Registry\.Counter must be a compile-time constant`
}

func badCharset(r *metrics.Registry) {
	r.Gauge("p2p peer load", "spaces are not a charset", nil).Set(0) // want `metric name "p2p peer load" is not a valid Prometheus metric name`
}

func unboundedKey(r *metrics.Registry, taskID string) {
	r.Counter(MetricAdmitted, "help", metrics.Labels{"task": taskID}).Inc() // want `metrics\.Labels key "task" is outside the bounded label set`
}

func dynamicKey(r *metrics.Registry, k, v string) {
	_ = metrics.Labels{k: v} // want `metrics\.Labels key must be a compile-time string constant`
}

func funnel(r *metrics.Registry, name, help string) {
	//lint:ignore metriclabel — fixture: funnel whose callers pass constants
	r.Counter(name, help, nil).Inc()
}
