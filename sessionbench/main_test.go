package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Tiny versions of the workloads: the same code paths at sizes a unit
// test can afford.
var (
	tinyAdmit = simSpec{
		Peers: 12, MaxDomain: 16, Objects: 6, Replicas: 2, SvcPerPeer: 3, Clients: 6,
		Rate: 2, Arrivals: 8 * sim.Second, DurMeanSec: 3, DurMaxSec: 6, DeadlineMicros: 2_000_000,
		JoinSpacing: 20 * sim.Millisecond, Warmup: 5 * sim.Second, WarmupLoad: 3 * sim.Second, Drain: 40 * sim.Second,
	}
	tinyChurn = simSpec{
		Peers: 24, MaxDomain: 6, Objects: 8, Replicas: 2, SvcPerPeer: 3, Clients: 8,
		Rate: 2, Arrivals: 10 * sim.Second, DurMeanSec: 4, DurMaxSec: 8, DeadlineMicros: 2_000_000,
		ChurnPerMin: 30,
		JoinSpacing: 20 * sim.Millisecond, Warmup: 10 * sim.Second, Drain: 60 * sim.Second,
	}
	tinyDHT = simSpec{
		Peers: 16, MaxDomain: 6, Discovery: core.DiscoveryDHT, Objects: 6, Replicas: 2, SvcPerPeer: 3, Clients: 6,
		Rate: 1, Arrivals: 8 * sim.Second, DurMeanSec: 3, DurMaxSec: 6, DeadlineMicros: 2_000_000,
		JoinSpacing: 20 * sim.Millisecond, Warmup: 10 * sim.Second, Drain: 40 * sim.Second,
	}
	tinyLive = liveSpec{
		PeersPerSide: 2, Objects: 4, Rate: 40, Arrivals: 300 * time.Millisecond,
		DurationSec: 0.2, ChunkSec: 0.1, DeadlineMicros: 1_000_000, Warmup: 2,
		Drain: 10 * time.Second, JoinTimeout: 10 * time.Second,
	}
)

func tinySim(name string, spec simSpec) workload {
	return workload{name: name, sim: true, run: func(seed uint64, traced bool) rep { return runSimRep(spec, seed, traced) }}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMetricNamesMatchBenchmarkJSON runs the command's code path in both
// modes and requires exactly the metrics BENCHMARK.json declares, with
// their units, and the same workload names.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, benchmark declares %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %+v, benchmark declares %+v", bj.PerLayer, perLayer)
	}
	var declared, known []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !reflect.DeepEqual(declared, known) {
		t.Errorf("workloads in BENCHMARK.json = %v, benchmark runs %v", declared, known)
	}

	w := tinySim("tiny-admit", tinyAdmit)
	for _, traced := range []bool{false, true} {
		res := run(io.Discard, w, 1, time.Millisecond, traced)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%t: correct=%t failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
		want := names(endToEnd)
		units := endToEnd
		if traced {
			want, units = names(perLayer), perLayer
		}
		if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
			t.Fatalf("traced=%t: printed %v, want %v", traced, got, want)
		}
		for _, d := range units {
			if res.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s printed in %q, declared %q", d.Name, res.Metrics[d.Name].Unit, d.Unit)
			}
		}
	}
}

// TestSameSeedSameOutcome: repetitions with one seed agree on every
// non-timed result, traced or not, on every simulated workload shape.
func TestSameSeedSameOutcome(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec simSpec
	}{{"admit", tinyAdmit}, {"churn", tinyChurn}, {"dht", tinyDHT}} {
		t.Run(tc.name, func(t *testing.T) {
			a := runSimRep(tc.spec, 7, false)
			b := runSimRep(tc.spec, 7, false)
			c := runSimRep(tc.spec, 7, true)
			for _, r := range []rep{a, b, c} {
				if len(r.Fails) != 0 {
					t.Fatalf("checks failed: %v", r.Fails)
				}
			}
			if a.Out.Sessions == 0 {
				t.Fatalf("no sessions completed: %+v", a.Out)
			}
			if a.Out != b.Out {
				t.Errorf("same seed diverged:\n%+v\n%+v", a.Out, b.Out)
			}
			if a.Out != c.Out {
				t.Errorf("traced run perturbed the simulation:\n%+v\n%+v", a.Out, c.Out)
			}
			if c.Layer.Calls[layerAdmit] == 0 || c.Layer.Calls[layerTimer] == 0 {
				t.Errorf("traced run counted nothing: %+v", c.Layer)
			}
		})
	}
}

// TestDifferentSeedChangesOutcome: the seed reaches the inputs.
func TestDifferentSeedChangesOutcome(t *testing.T) {
	a := runSimRep(tinyAdmit, 1, false)
	b := runSimRep(tinyAdmit, 2, false)
	if a.Out == b.Out {
		t.Fatalf("seeds 1 and 2 gave identical outcomes: %+v", a.Out)
	}
}

// TestLiveRepResolvesEveryTask runs the live-tcp path at a tiny rate.
func TestLiveRepResolvesEveryTask(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := runLiveRep(tinyLive, 3, traced)
		if len(r.Fails) != 0 {
			t.Fatalf("traced=%t: checks failed: %v", traced, r.Fails)
		}
		if r.Out.Tasks == 0 || r.Out.Sessions != r.Out.Reported || r.Out.Served == 0 {
			t.Fatalf("traced=%t: outcome %+v", traced, r.Out)
		}
		if traced && r.Layer.Calls[layerAdmit] == 0 {
			t.Errorf("traced live run counted no admission work: %+v", r.Layer)
		}
	}
}
