package core

import (
	"strconv"
	"sync"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Events collects run-wide observations from all nodes. One Events
// instance is shared by every peer of a run; experiments read it after the
// simulation finishes. It is mutex-guarded so the live runtime (where
// nodes are goroutines) can share it too.
//
// Beyond the coarse counters of EventsData, an Events can carry optional
// sinks attached before the run starts: a *trace.Tracer (span tracing of
// each task query, see internal/trace), a *metrics.Registry (labeled
// counters/gauges/histograms for the /metrics endpoint), a *stats.Set
// (windowed quantile sketches) and a *DecisionLog (the RM decision
// audit). Every fact reaches EventsData, the registry and the sketches
// through one funnel, emit, driven by the per-kind table kinds; decide
// adds the audit ring and a trace instant for RM decisions, and span
// sites call the tracer directly. With no sinks attached a fact costs
// one locked EventsData update.
type Events struct {
	mu         sync.Mutex
	EventsData // guarded by mu

	// tr, reg, sk and dec are set once by the Attach* methods before any
	// node runs (the goroutine/simulation start provides the
	// happens-before edge), so the funnel reads them without locking.
	tr  *trace.Tracer
	reg *metrics.Registry
	sk  *stats.Set
	dec *DecisionLog
}

// EventsData is the plain-data portion of Events; Snapshot returns a copy
// of it.
type EventsData struct {
	Submitted  int // task queries issued by users
	Admitted   int // sessions composed
	Rejected   int // TaskReject outcomes
	Redirected int // inter-domain forwards

	Reports []proto.SessionReport // completed-session accounts

	Repairs        int     // failure-triggered re-allocations
	RepairMicros   []int64 // detection→recompose latency
	Migrations     int     // overload-triggered reassignments
	Preemptions    int     // importance-based session preemptions
	Aborted        int     // sessions torn down before/without a sink report
	Failovers      int     // backup→RM takeovers
	FailoverMicros []int64 // RM silence detection→takeover

	DomainsCreated    int
	PeersDeclaredDead int

	StaleRedirectSkips int // redirect candidates skipped for stale summaries
	DHTLookups         int // iterative DHT provider lookups finished
	DHTLookupHits      int // ... that found at least one record

	AllocNanos []int64 // wall-clock cost of each allocation computation
}

// Metric families emitted into an attached Registry. All session counters
// carry a "domain" label; the load/util gauges additionally carry "peer".
const (
	MetricSubmitted   = "p2p_sessions_submitted_total"
	MetricAdmitted    = "p2p_sessions_admitted_total"
	MetricRejected    = "p2p_sessions_rejected_total"
	MetricRedirected  = "p2p_sessions_redirected_total"
	MetricCompleted   = "p2p_sessions_completed_total"
	MetricAborted     = "p2p_sessions_aborted_total"
	MetricRepairs     = "p2p_session_repairs_total"
	MetricMigrations  = "p2p_session_migrations_total"
	MetricPreemptions = "p2p_session_preemptions_total"
	MetricFailovers   = "p2p_rm_failovers_total"
	MetricDomains     = "p2p_domains_created_total"
	MetricPeersDead   = "p2p_peers_declared_dead_total"
	MetricChunks      = "p2p_chunks_total"
	MetricChunksMiss  = "p2p_chunks_missed_total"
	MetricAllocSec    = "p2p_alloc_seconds"
	MetricRepairSec   = "p2p_repair_seconds"
	MetricFailoverSec = "p2p_failover_seconds"
	MetricPeerLoad    = "p2p_peer_load"
	MetricPeerUtil    = "p2p_peer_util"
	MetricDecisions   = "p2p_rm_decisions_total"
	MetricStaleSkips  = "p2p_rm_redirects_stale_skipped_total"
	MetricDHTLookups  = "p2p_dht_lookups_total"
	MetricDHTLookupS  = "p2p_dht_lookup_seconds"
)

// AttachTracer installs a span-tracing sink. Must be called before any
// node of the run starts executing.
func (e *Events) AttachTracer(tr *trace.Tracer) {
	if e == nil {
		return
	}
	e.tr = tr
}

// Tracer returns the attached tracer, nil when tracing is off. Call sites
// guard with this so the disabled path is one pointer compare.
func (e *Events) Tracer() *trace.Tracer {
	if e == nil {
		return nil
	}
	return e.tr
}

// AttachMetrics installs a labeled-metrics sink and pre-registers the
// session-outcome families for domain 0 so a scrape of a freshly started
// node already exposes them at zero. Must be called before any node of
// the run starts executing.
func (e *Events) AttachMetrics(reg *metrics.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.reg = reg
	e.emit(fact{kind: kindAttached})
}

// AttachSketches installs the streaming-percentile sink: allocation
// latency, per-session delivery RTT, failover and DHT lookup time feed
// its windowed quantile sketches (internal/stats). Must be called before
// any node of the run starts executing.
func (e *Events) AttachSketches(sk *stats.Set) {
	if e == nil {
		return
	}
	e.sk = sk
}

// AttachDecisions installs the RM decision-audit sink. Must be called
// before any node of the run starts executing.
func (e *Events) AttachDecisions(dec *DecisionLog) {
	if e == nil {
		return
	}
	e.dec = dec
}

// kind names one kind of fact a node reports.
type kind uint8

const (
	kindNone kind = iota // an RM decision that is no counted fact of its own
	// The session-outcome kinds, kindSubmitted through kindCompleted, are
	// pre-registered at zero when a registry is attached.
	kindSubmitted
	kindAdmitted
	kindRejected
	kindRedirected
	kindCompleted // payload: report
	kindRepair
	kindAborted
	kindPreempted
	kindMigrated
	kindFailover
	kindStaleSkip
	kindDHTHit
	kindDHTMiss
	kindDomain
	kindPeerDead
	kindAlloc
	kindPeerLoad // payload: peer, load, util; metrics only
	kindAttached // a registry was attached
)

// A fact is one observation on its way to the sinks.
type fact struct {
	kind   kind
	domain proto.DomainID
	now    int64  // µs: the time axis of the sketches
	n      int64  // a timed kind's sample, in the kind's unit
	action string // an RM decision's action, counted per action

	report     proto.SessionReport
	peer       int
	load, util float64
}

// kinds declares, once per kind of fact, everything the funnel does with
// it: the EventsData update, the counter family (with its "result"
// label, if any), the histogram family and the sketch. A timed kind's
// sample n is observed in seconds, n/unit; a completed session's is its
// report's mean delivery latency, observed when any chunk arrived.
var kinds = [...]struct {
	apply          func(*EventsData, fact)
	counter, help  string
	result         string
	hist, histHelp string
	sketch         string
	unit           float64
}{
	kindSubmitted: {apply: func(d *EventsData, _ fact) { d.Submitted++ },
		counter: MetricSubmitted, help: "Task queries issued by users."},
	kindAdmitted: {apply: func(d *EventsData, _ fact) { d.Admitted++ },
		counter: MetricAdmitted, help: "Sessions composed after a successful allocation."},
	kindRejected: {apply: func(d *EventsData, _ fact) { d.Rejected++ },
		counter: MetricRejected, help: "Task queries rejected or timed out."},
	kindRedirected: {apply: func(d *EventsData, _ fact) { d.Redirected++ },
		counter: MetricRedirected, help: "Task queries forwarded to another domain."},
	kindCompleted: {apply: func(d *EventsData, f fact) { d.Reports = append(d.Reports, f.report) },
		counter: MetricCompleted, help: "Sessions finalized by their sink.",
		sketch: stats.SketchDeliveryRTT},
	kindRepair: {apply: func(d *EventsData, f fact) { d.Repairs++; d.RepairMicros = append(d.RepairMicros, f.n) },
		counter: MetricRepairs, help: "Failure-triggered session re-allocations.",
		hist: MetricRepairSec, histHelp: "Failure detection to recompose latency in seconds.", unit: 1e6},
	kindAborted: {apply: func(d *EventsData, _ fact) { d.Aborted++ },
		counter: MetricAborted, help: "Sessions torn down before any sink report."},
	kindPreempted: {apply: func(d *EventsData, _ fact) { d.Preemptions++ },
		counter: MetricPreemptions, help: "Sessions preempted for higher-importance tasks."},
	kindMigrated: {apply: func(d *EventsData, _ fact) { d.Migrations++ },
		counter: MetricMigrations, help: "Overload-triggered session reassignments."},
	kindFailover: {apply: func(d *EventsData, f fact) { d.Failovers++; d.FailoverMicros = append(d.FailoverMicros, f.n) },
		counter: MetricFailovers, help: "Backup-to-RM takeovers.",
		hist: MetricFailoverSec, histHelp: "RM silence detection to takeover latency in seconds.",
		sketch: stats.SketchFailover, unit: 1e6},
	kindStaleSkip: {apply: func(d *EventsData, _ fact) { d.StaleRedirectSkips++ },
		counter: MetricStaleSkips, help: "Redirect candidates skipped because their summary aged past the prune horizon."},
	kindDHTHit: {apply: func(d *EventsData, _ fact) { d.DHTLookups++; d.DHTLookupHits++ },
		counter: MetricDHTLookups, help: "Iterative DHT provider lookups by outcome.", result: "hit",
		hist: MetricDHTLookupS, histHelp: "Iterative DHT lookup latency in seconds.",
		sketch: stats.SketchDHTLookup, unit: 1e6},
	kindDHTMiss: {apply: func(d *EventsData, _ fact) { d.DHTLookups++ },
		counter: MetricDHTLookups, help: "Iterative DHT provider lookups by outcome.", result: "miss",
		hist: MetricDHTLookupS, histHelp: "Iterative DHT lookup latency in seconds.",
		sketch: stats.SketchDHTLookup, unit: 1e6},
	kindDomain: {apply: func(d *EventsData, _ fact) { d.DomainsCreated++ },
		counter: MetricDomains, help: "Domains founded over the run."},
	kindPeerDead: {apply: func(d *EventsData, _ fact) { d.PeersDeclaredDead++ },
		counter: MetricPeersDead, help: "Peers removed from a domain (crash or leave)."},
	kindAlloc: {apply: func(d *EventsData, f fact) { d.AllocNanos = append(d.AllocNanos, f.n) },
		hist: MetricAllocSec, histHelp: "Wall-clock cost of one allocation computation in seconds.",
		sketch: stats.SketchAllocLatency, unit: 1e9},
	kindPeerLoad: {}, // two gauges, set by the funnel
	kindAttached: {}, // pre-registers the session-outcome counters
}

// decisionKinds maps the RM actions that are counted facts of their own
// to their kind.
var decisionKinds = map[string]kind{
	DecisionAdmit:    kindAdmitted,
	DecisionRedirect: kindRedirected,
	DecisionPreempt:  kindPreempted,
	DecisionMigrate:  kindMigrated,
	DecisionFailover: kindFailover,
}

// emit is the funnel every fact goes through: it applies the fact to
// EventsData under one lock, then feeds each attached sink what the
// fact's row in kinds declares.
func (e *Events) emit(f fact) {
	if e == nil {
		return
	}
	k := &kinds[f.kind]
	if k.apply != nil {
		e.mu.Lock()
		k.apply(&e.EventsData, f)
		e.mu.Unlock()
	}
	var secs float64 // a timed fact's sample, in seconds
	timed := k.unit > 0
	switch {
	case f.kind == kindCompleted:
		secs, timed = f.report.MeanLatencyMicros/1e6, f.report.Received > 0
	case timed:
		secs = float64(f.n) / k.unit
	}
	if e.reg != nil {
		dom := strconv.Itoa(int(f.domain))
		labels := metrics.Labels{"domain": dom}
		if k.counter != "" {
			cl := labels
			if k.result != "" {
				cl = metrics.Labels{"domain": dom, "result": k.result}
			}
			e.reg.Counter(k.counter, k.help, cl).Inc() //lint:allow metriclabel every kinds row names a Metric* constant
		}
		if k.hist != "" {
			e.reg.Histogram(k.hist, k.histHelp, nil, labels).Observe(secs) //lint:allow metriclabel every kinds row names a Metric* constant
		}
		if f.action != "" {
			e.reg.Counter(MetricDecisions, "RM decisions by action.",
				metrics.Labels{"domain": dom, "result": f.action}).Inc()
		}
		switch f.kind {
		case kindCompleted:
			e.reg.Counter(MetricChunks, "Chunks expected across finalized sessions.", labels).Add(f.report.Chunks)
			e.reg.Counter(MetricChunksMiss, "Chunks late or lost across finalized sessions.", labels).Add(f.report.Missed)
		case kindPeerLoad:
			labels["peer"] = strconv.Itoa(f.peer)
			e.reg.Gauge(MetricPeerLoad, "Profiled load of one peer in work units/s.", labels).Set(f.load)
			e.reg.Gauge(MetricPeerUtil, "Profiled load of one peer relative to its speed.", labels).Set(f.util)
		case kindAttached:
			for _, s := range kinds[kindSubmitted : kindCompleted+1] {
				e.reg.Counter(s.counter, s.help, labels) //lint:allow metriclabel every kinds row names a Metric* constant
			}
		}
	}
	if e.sk != nil && k.sketch != "" && timed {
		e.sk.Observe(k.sketch, f.now, secs)
	}
}

// decide records one RM decision: into the audit ring, as a count per
// action together with the fact the action stands for (an admission, a
// redirect, a preemption, a migration or a failover, whose sample n is
// its detection latency in µs), and as a "decision" instant inside the
// task's span, carrying extra after the decision's own attributes.
func (e *Events) decide(d Decision, n int64, extra ...trace.Attr) {
	if e == nil {
		return
	}
	e.dec.Add(d)
	e.emit(fact{kind: decisionKinds[d.Action], domain: proto.DomainID(d.Domain), now: d.TSMicros,
		n: n, action: d.Action})
	if e.tr != nil {
		attrs := []trace.Attr{trace.A("action", d.Action)}
		if d.Reason != "" {
			attrs = append(attrs, trace.A("reason", d.Reason))
		}
		if d.UtilityDelta != 0 {
			attrs = append(attrs, trace.A("utility_delta", d.UtilityDelta))
		}
		if len(d.Candidates) > 0 {
			attrs = append(attrs, trace.A("candidates", d.Candidates))
		}
		if d.Action == DecisionFailover {
			attrs = append(attrs, trace.A("detection_micros", n))
		}
		attrs = append(attrs, extra...)
		e.tr.Instant(d.TSMicros, d.Task, trace.EventDecision, d.Node, d.Domain, attrs...)
	}
}

// Snapshot returns a copy safe to read while nodes are still running.
func (e *Events) Snapshot() EventsData {
	if e == nil {
		return EventsData{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := e.EventsData
	cp.Reports = append([]proto.SessionReport(nil), e.Reports...)
	cp.RepairMicros = append([]int64(nil), e.RepairMicros...)
	cp.FailoverMicros = append([]int64(nil), e.FailoverMicros...)
	cp.AllocNanos = append([]int64(nil), e.AllocNanos...)
	return cp
}

// MissRate aggregates chunk misses across all session reports.
func (e *Events) MissRate() float64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var chunks, missed int
	for _, r := range e.Reports {
		chunks += r.Chunks
		missed += r.Missed
	}
	if chunks == 0 {
		return 0
	}
	return float64(missed) / float64(chunks)
}

// SessionsOnTime counts sessions whose startup met the given budget and
// that missed no chunks.
func (e *Events) SessionsOnTime(startupBudgetMicros int64) int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range e.Reports {
		if r.Missed == 0 && r.StartupMicros <= startupBudgetMicros {
			n++
		}
	}
	return n
}
