package core

import (
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestEventsConcurrentMutation hammers every kind of fact and the
// decision path from parallel goroutines while readers snapshot,
// mirroring the live runtime where each node is a goroutine sharing one
// Events. Run with -race.
func TestEventsConcurrentMutation(t *testing.T) {
	e := &Events{}
	reg := metrics.NewRegistry()
	e.AttachMetrics(reg)
	e.AttachTracer(trace.New())
	e.AttachSketches(stats.NewSet(0, 0, 0))
	e.AttachDecisions(NewDecisionLog(0))

	const writers, iters = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := proto.DomainID(g % 2)
			for i := 0; i < iters; i++ {
				for k := range kinds {
					e.emit(fact{kind: kind(k), domain: d, n: 50, peer: g, load: float64(i), util: 0.5,
						report: proto.SessionReport{Chunks: 10, Received: 9, Missed: 1, StartupMicros: 1000}})
				}
				e.decide(Decision{Domain: int(d), Action: DecisionFailover}, 70)
			}
		}(g)
	}
	// Concurrent readers must never race with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			e.Snapshot()
			e.MissRate()
			e.SessionsOnTime(5000)
			reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	total := writers * iters
	s := e.Snapshot()
	if s.Submitted != total || s.Admitted != total || s.Rejected != total ||
		s.Redirected != total || s.Aborted != total || s.Preemptions != total ||
		s.Migrations != total || s.DomainsCreated != total || s.PeersDeclaredDead != total ||
		s.StaleRedirectSkips != total || s.DHTLookups != 2*total || s.DHTLookupHits != total {
		t.Fatalf("lost counter updates: %+v", s)
	}
	if len(s.Reports) != total || s.Repairs != total || len(s.RepairMicros) != total ||
		s.Failovers != 2*total || len(s.FailoverMicros) != 2*total || len(s.AllocNanos) != total {
		t.Fatalf("lost slice appends: reports=%d repairs=%d failovers=%d allocs=%d",
			len(s.Reports), len(s.RepairMicros), len(s.FailoverMicros), len(s.AllocNanos))
	}
	if got, want := e.MissRate(), 0.1; got != want {
		t.Fatalf("MissRate = %g, want %g", got, want)
	}
	if got := e.SessionsOnTime(5000); got != 0 {
		t.Fatalf("SessionsOnTime = %d (all reports miss chunks)", got)
	}

	// The labeled counters saw every increment too, split across the two
	// domain labels.
	sums := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		for _, m := range fam.Metrics {
			sums[fam.Name] += m.Value
		}
	}
	if int(sums[MetricSubmitted]) != total || int(sums[MetricFailovers]) != 2*total ||
		int(sums[MetricDecisions]) != total || int(sums[MetricChunks]) != 10*total {
		t.Fatalf("registry submitted/failovers/decisions/chunks = %g/%g/%g/%g, want %d/%d/%d/%d",
			sums[MetricSubmitted], sums[MetricFailovers], sums[MetricDecisions], sums[MetricChunks],
			total, 2*total, total, 10*total)
	}
}

// TestEventsNilReceiver checks that a peer without an Events sink (nil)
// can still emit every kind of fact and decision.
func TestEventsNilReceiver(t *testing.T) {
	var e *Events
	for k := range kinds {
		e.emit(fact{kind: kind(k), n: 1})
	}
	e.decide(Decision{Action: DecisionFailover}, 1)
	if e.Tracer() != nil {
		t.Fatal("nil Events returned a tracer")
	}
}

// TestAttachMetricsPreRegisters checks a fresh registry already exposes
// the domain-0 session counters at zero (so a scrape before any traffic
// is meaningful).
func TestAttachMetricsPreRegisters(t *testing.T) {
	e := &Events{}
	reg := metrics.NewRegistry()
	e.AttachMetrics(reg)
	want := map[string]bool{
		MetricSubmitted: false, MetricAdmitted: false, MetricRejected: false,
		MetricRedirected: false, MetricCompleted: false,
	}
	for _, fam := range reg.Snapshot() {
		if _, ok := want[fam.Name]; ok {
			want[fam.Name] = true
			if len(fam.Metrics) != 1 || fam.Metrics[0].Value != 0 {
				t.Fatalf("%s not pre-registered at zero: %+v", fam.Name, fam.Metrics)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("%s not pre-registered", name)
		}
	}
}
