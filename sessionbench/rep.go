package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// rep is everything one repetition measured.
type rep struct {
	Setup float64 // wall seconds to build the fleet, join every peer and warm up
	Wall  float64 // wall seconds of the measured phase
	CPU   float64 // process CPU seconds (user+sys) of the measured phase
	Out   outcome
	Heap  float64 // MB in use after a forced GC, fleet still up
	Go    goDelta
	Layer layerCounts
	Live  liveExtras
	Fails []string // failed correctness checks
}

func (r *rep) fail(format string, args ...any) {
	r.Fails = append(r.Fails, fmt.Sprintf(format, args...))
}

// outcome is the non-timed result of a repetition. On the simulated
// workloads every field is a pure function of (workload, seed): the
// harness requires it bit-identical across repetitions and between the
// traced and untraced runs.
type outcome struct {
	Tasks      int // tasks the generator issued
	Sessions   int // reports completed during the measured phase
	Submitted  int
	Reported   int // tasks with a session report
	Extra      int // outcomes beyond one per task (known defects, see settle)
	Served     int // reports with at least one chunk received
	Rejected   int // rejections and submit-watchdog timeouts
	Aborted    int
	Redirected int
	Repairs    int
	Failovers  int
	DHTLookups int
	DHTHits    int

	StartupP50 float64 // ms; virtual on the sim, from the due time on live-tcp
	StartupP99 float64
	ServedShr  float64
	OntimeShr  float64
	Fairness   float64

	// Simulation only.
	Events      uint64 // engine events fired
	NetSent     uint64
	NetDropped  uint64
	NetKB       float64
	PeerSeconds float64 // Σ live members × seconds of the measured phase
	DHTP99Ms    float64
}

// goDelta is the Go runtime's view of the measured phase.
type goDelta struct {
	Allocs uint64
	Bytes  uint64
	GCCPU  float64 // seconds
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

// meter brackets a measured phase.
type meter struct {
	wall time.Time
	cpu  float64
	gm   []metrics.Sample
}

func startMeter() meter {
	m := meter{gm: make([]metrics.Sample, len(goMetricNames))}
	for i, n := range goMetricNames {
		m.gm[i].Name = n
	}
	metrics.Read(m.gm)
	m.cpu = processCPU()
	m.wall = time.Now()
	return m
}

func (m meter) stop(r *rep) {
	r.Wall = time.Since(m.wall).Seconds()
	r.CPU = processCPU() - m.cpu
	end := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		end[i].Name = n
	}
	metrics.Read(end)
	r.Go = goDelta{
		Allocs: end[0].Value.Uint64() - m.gm[0].Value.Uint64(),
		Bytes:  end[1].Value.Uint64() - m.gm[1].Value.Uint64(),
		GCCPU:  end[2].Value.Float64() - m.gm[2].Value.Float64(),
	}
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// settle fills the outcome fields every workload derives from the run's
// events: served share, on-time share and the task-resolution check.
// startupMs maps each served report to its startup in milliseconds.
func settle(r *rep, ev core.EventsData, missRate float64, startupMs func(proto.SessionReport) float64) {
	o := &r.Out
	o.Submitted = ev.Submitted
	o.Rejected = ev.Rejected
	o.Aborted = ev.Aborted
	o.Redirected = ev.Redirected
	o.Repairs = ev.Repairs
	o.Failovers = ev.Failovers
	o.DHTLookups = ev.DHTLookups
	o.DHTHits = ev.DHTLookupHits
	var startups []float64
	seen := make(map[string]bool, len(ev.Reports))
	o.Reported = 0
	for _, rp := range ev.Reports {
		if seen[rp.TaskID] {
			if rp.Received == 0 {
				o.Extra++
				continue
			}
			r.fail("task %s reported twice", rp.TaskID)
		}
		seen[rp.TaskID] = true
		o.Reported++
		if rp.Received > 0 {
			startups = append(startups, startupMs(rp))
		}
	}
	sort.Float64s(startups)
	o.Served = len(startups)
	o.StartupP50 = quantile(startups, 0.50)
	o.StartupP99 = quantile(startups, 0.99)
	if o.Tasks > 0 {
		o.ServedShr = float64(o.Reported) / float64(o.Tasks)
	}
	o.OntimeShr = 1 - missRate
	// Every task ends as a report, rejection, abort or timeout; aborts
	// and timeouts reach the submitter as rejections, so fewer outcomes
	// than tasks means a task never resolved. Two known defects give a
	// task a second outcome, which is counted, not failed: the RM
	// recomposes a session (migration or repair) whose sink has just
	// finalised, and the sink reports the empty new generation at its
	// watchdog (the empty reports skipped above); and a submission made
	// while the origin has no RM is rejected at once and again when its
	// watchdog fires.
	if extra := o.Rejected + o.Reported - o.Submitted; o.Submitted != o.Tasks || extra < 0 {
		r.fail("unresolved tasks: issued %d, submitted %d, reported %d, rejected %d",
			o.Tasks, o.Submitted, o.Reported, o.Rejected)
	} else {
		o.Extra += extra
	}
}

// resolved reports whether every issued task has an outcome.
func resolved(ev *core.Events, tasks int) bool {
	d := ev.Snapshot()
	return d.Submitted == tasks && d.Rejected+distinctReports(d) >= tasks
}

func distinctReports(d core.EventsData) int {
	seen := make(map[string]bool, len(d.Reports))
	for _, rp := range d.Reports {
		seen[rp.TaskID] = true
	}
	return len(seen)
}

// runSimRep builds a fleet, runs one measured phase and reads it out.
func runSimRep(spec simSpec, seed uint64, traced bool) rep {
	var r rep
	runtime.GC()
	t0 := time.Now()
	f := newSimFleet(spec, seed, traced)
	if err := f.build(seed); err != nil {
		r.fail("set-up: %v", err)
	}
	r.Setup = time.Since(t0).Seconds()

	f.schedule(seed)
	r.Out.Tasks = f.gen.issued
	reports0 := distinctReports(f.events.Snapshot())
	net0, fired0, layers0 := f.net.Stats(), f.eng.Fired(), f.probes()
	for _, a := range f.actors {
		a.pr.c.PeakPending = 0
	}
	start := f.eng.Now()
	end := start + spec.Arrivals
	var fair, buf []float64
	var peerSec float64
	m := startMeter()
	// Advance in virtual seconds, sampling utilisation between steps;
	// fairness averages the arrival window, the drain only resolves tasks.
	for f.eng.Now() < end || (!resolved(f.events, r.Out.Tasks) && f.eng.Now() < end+spec.Drain) {
		f.eng.RunUntil(f.eng.Now() + sim.Second)
		var j float64
		buf, j = f.fairness(buf)
		peerSec += float64(len(buf))
		if f.eng.Now() <= end {
			fair = append(fair, j)
		}
	}
	m.stop(&r)
	r.Heap = heapMB()

	ev := f.events.Snapshot()
	settle(&r, ev, f.events.MissRate(), func(rp proto.SessionReport) float64 {
		return float64(rp.StartupMicros) / 1e3
	})
	net := f.net.Stats()
	o := &r.Out
	o.Sessions = o.Reported - reports0
	o.Fairness = mean(fair)
	o.Events = f.eng.Fired() - fired0
	o.NetSent = net.Sent - net0.Sent
	o.NetDropped = net.Dropped + net.FaultDrops - net0.Dropped - net0.FaultDrops
	o.NetKB = net.KBytes - net0.KBytes
	o.PeerSeconds = peerSec
	o.DHTP99Ms = f.sk.Quantile(stats.SketchDHTLookup, int64(f.eng.Now()), 0.99) * 1e3
	r.Layer = f.probes().sub(layers0)
	return r
}
