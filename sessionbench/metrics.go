package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric; the lists below are mirrored by
// BENCHMARK.json (TestMetricNamesMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: tolerated worsening, as a share of the median
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sessions_per_cpu_s", "1/s", "higher", 0.25},
	{"startup_p50_ms", "ms", "lower", 0.25},
	{"startup_p99_ms", "ms", "lower", 0.25},
	{"served_share", "fraction", "higher", 0.1},
	{"chunk_ontime_share", "fraction", "higher", 0.05},
	{"fairness_index", "fraction", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "graph.alloc_calls_per_session", Unit: "count", Better: "lower"},
	{Name: "graph.alloc_us_per_call", Unit: "us", Better: "lower"},
	{Name: "graph.alloc_feasible_share", Unit: "fraction", Better: "higher"},
	{Name: "rm.admit_us_per_session", Unit: "us", Better: "lower"},
	{Name: "rm.admit_msgs_per_session", Unit: "count", Better: "lower"},
	{Name: "rm.redirect_share", Unit: "fraction", Better: "lower"},
	{Name: "rm.membership_us_per_peer_s", Unit: "us/peer-s", Better: "lower"},
	{Name: "rm.repairs_per_session", Unit: "count", Better: "lower"},
	{Name: "rm.failovers", Unit: "count", Better: "lower"},
	{Name: "rm.extra_outcomes", Unit: "count", Better: "lower"},
	{Name: "dataplane.us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "sched.policy_calls_per_chunk", Unit: "count", Better: "lower"},
	{Name: "core.timers_per_session", Unit: "count", Better: "lower"},
	{Name: "core.timer_us_per_session", Unit: "us", Better: "lower"},
	{Name: "gossip.us_per_peer_s", Unit: "us/peer-s", Better: "lower"},
	{Name: "gossip.msgs_per_peer_s", Unit: "1/peer-s", Better: "lower"},
	{Name: "dht.lookups_per_session", Unit: "count", Better: "lower"},
	{Name: "dht.lookup_hit_share", Unit: "fraction", Better: "higher"},
	{Name: "dht.msgs_per_lookup", Unit: "count", Better: "lower"},
	{Name: "dht.us_per_lookup", Unit: "us", Better: "lower"},
	{Name: "dht.lookup_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.events_per_session", Unit: "count", Better: "lower"},
	{Name: "sim.self_us_per_event", Unit: "us", Better: "lower"},
	{Name: "sim.peak_pending", Unit: "count", Better: "lower"},
	{Name: "netsim.msgs_per_session", Unit: "count", Better: "lower"},
	{Name: "netsim.kb_per_session", Unit: "KB", Better: "lower"},
	{Name: "netsim.drop_share", Unit: "fraction", Better: "lower"},
	{Name: "proto.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "proto.bytes_per_session", Unit: "B", Better: "lower"},
	{Name: "live.frames_per_batch", Unit: "count", Better: "higher"},
	{Name: "live.transport_drops", Unit: "count", Better: "lower"},
	{Name: "live.rm_mailbox_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "live.generator_lag_ms_max", Unit: "ms", Better: "lower"},
	{Name: "go.allocs_per_session", Unit: "count", Better: "lower"},
	{Name: "go.alloc_kb_per_session", Unit: "KB", Better: "lower"},
	{Name: "go.gc_cpu_share", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower"},
}

// ratio divides, reading 0 when there is nothing to divide by (a layer
// that did not run on the workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spread summarises one timed metric across repetitions.
type spread struct{ best, median float64 }

// summarise returns the best (minimum, or maximum when higher is
// better) and the median of xs.
func summarise(xs []float64, higherBetter bool) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return spread{}
	}
	best := s[0]
	if higherBetter {
		best = s[len(s)-1]
	}
	return spread{best: best, median: median(s)}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// endToEndMetrics derives the end-to-end metrics from the untraced
// repetitions. Timed values are the best repetition; the spreads map
// carries best and median of each timed metric for the report.
func endToEndMetrics(w workload, reps []rep) (map[string]float64, map[string]spread) {
	col := func(f func(rep) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	timed := map[string]spread{
		"setup_s":            summarise(col(func(r rep) float64 { return r.Setup }), false),
		"sessions_per_cpu_s": summarise(col(func(r rep) float64 { return ratio(float64(r.Out.Sessions), r.CPU) }), true),
	}
	out := map[string]float64{
		"live_heap_mb": medianOf(col(func(r rep) float64 { return r.Heap })),
	}
	first := reps[0].Out
	if w.sim {
		// Virtual-time outcomes: identical in every repetition.
		out["startup_p50_ms"] = first.StartupP50
		out["startup_p99_ms"] = first.StartupP99
		out["served_share"] = first.ServedShr
		out["chunk_ontime_share"] = first.OntimeShr
		out["fairness_index"] = first.Fairness
	} else {
		timed["startup_p50_ms"] = summarise(col(func(r rep) float64 { return r.Out.StartupP50 }), false)
		timed["startup_p99_ms"] = summarise(col(func(r rep) float64 { return r.Out.StartupP99 }), false)
		out["served_share"] = medianOf(col(func(r rep) float64 { return r.Out.ServedShr }))
		out["chunk_ontime_share"] = medianOf(col(func(r rep) float64 { return r.Out.OntimeShr }))
		out["fairness_index"] = medianOf(col(func(r rep) float64 { return r.Out.Fairness }))
	}
	for name, s := range timed {
		out[name] = s.best
	}
	return out, timed
}

// fastest returns the repetition whose measured phase used the least
// CPU (on live-tcp the wall time is fixed by the arrival schedule).
func fastest(reps []rep) rep {
	best := reps[0]
	for _, r := range reps[1:] {
		if r.CPU < best.CPU {
			best = r
		}
	}
	return best
}

// perLayerMetrics derives the layer metrics from the fastest traced
// repetition (times) and the fastest untraced one (Go runtime costs,
// which the wrappers would inflate).
func perLayerMetrics(plain, traced []rep) map[string]float64 {
	t, u := fastest(traced), fastest(plain)
	l, o := t.Layer, t.Out
	us := func(n int64) float64 { return float64(n) / 1e3 }
	sessions, peerSec := float64(o.Sessions), o.PeerSeconds
	lagMax := 0.0
	for _, r := range plain {
		lagMax = math.Max(lagMax, r.Live.LagMaxMs)
	}
	return map[string]float64{
		"graph.alloc_calls_per_session": ratio(float64(l.Calls[layerAlloc]), sessions),
		"graph.alloc_us_per_call":       ratio(us(l.Nanos[layerAlloc]), float64(l.Calls[layerAlloc])),
		"graph.alloc_feasible_share":    ratio(float64(l.AllocFeasible), float64(l.Calls[layerAlloc])),
		"rm.admit_us_per_session":       ratio(us(l.Nanos[layerAdmit]), sessions),
		"rm.admit_msgs_per_session":     ratio(float64(l.Calls[layerAdmit]), sessions),
		"rm.redirect_share":             ratio(float64(o.Redirected), float64(o.Submitted)),
		"rm.membership_us_per_peer_s":   ratio(us(l.Nanos[layerMember]), peerSec),
		"rm.repairs_per_session":        ratio(float64(o.Repairs), sessions),
		"rm.failovers":                  float64(o.Failovers),
		"rm.extra_outcomes":             float64(o.Extra),
		"dataplane.us_per_chunk":        ratio(us(l.Nanos[layerData]), float64(l.Chunks)),
		"sched.policy_calls_per_chunk":  ratio(float64(l.PolicyCalls), float64(l.Chunks)),
		"core.timers_per_session":       ratio(float64(l.Calls[layerTimer]), sessions),
		"core.timer_us_per_session":     ratio(us(l.Nanos[layerTimer]), sessions),
		"gossip.us_per_peer_s":          ratio(us(l.Nanos[layerGossip]), peerSec),
		"gossip.msgs_per_peer_s":        ratio(float64(l.Calls[layerGossip]), peerSec),
		"dht.lookups_per_session":       ratio(float64(o.DHTLookups), sessions),
		"dht.lookup_hit_share":          ratio(float64(o.DHTHits), float64(o.DHTLookups)),
		"dht.msgs_per_lookup":           ratio(float64(l.Calls[layerDHT]), float64(o.DHTLookups)),
		"dht.us_per_lookup":             ratio(us(l.Nanos[layerDHT]), float64(o.DHTLookups)),
		"dht.lookup_p99_ms":             o.DHTP99Ms,
		"sim.events_per_session":        ratio(float64(o.Events), sessions),
		"sim.self_us_per_event":         ratio(t.Wall*1e6-us(l.handlerNanos()), float64(o.Events)),
		"sim.peak_pending":              float64(l.PeakPending),
		"netsim.msgs_per_session":       ratio(float64(o.NetSent), sessions),
		"netsim.kb_per_session":         ratio(o.NetKB, sessions),
		"netsim.drop_share":             ratio(float64(o.NetDropped), float64(o.NetSent)),
		"proto.encode_ns_per_msg":       ratio(float64(l.Nanos[layerEncode]), float64(l.Calls[layerEncode])),
		"proto.bytes_per_session":       ratio(float64(l.EncodedBytes), sessions),
		"live.frames_per_batch":         ratio(float64(t.Live.Frames), float64(t.Live.Batches)),
		"live.transport_drops":          float64(t.Live.Drops),
		"live.rm_mailbox_wait_ms_p99":   t.Live.MailboxP99Ms,
		"live.generator_lag_ms_max":     lagMax,
		"go.allocs_per_session":         ratio(float64(u.Go.Allocs), float64(u.Out.Sessions)),
		"go.alloc_kb_per_session":       ratio(float64(u.Go.Bytes)/1e3, float64(u.Out.Sessions)),
		"go.gc_cpu_share":               ratio(u.Go.GCCPU, u.CPU),
		"trace.overhead_share":          ratio(t.CPU, u.CPU) - 1,
	}
}
