package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/trace"
)

const basicScenario = `
name: test-basic
seed: 7
duration: 20s
fleet:
  size: 8
  over: 3s
  templates:
    - name: strong
      weight: 1
      speed: 12
      bandwidth: 8000
      uptime: 7200
    - name: weak
      weight: 1
workload:
  rate: 1.0
events:
  - at: 8s
    do: crash rm
assert:
  submitted_min: 5
  admitted_min: 1
  failovers_min: 1
  failover_time_max: 10s
`

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseSpecDefaultsAndSections(t *testing.T) {
	s := mustParse(t, basicScenario)
	if s.Name != "test-basic" || s.Seed != 7 {
		t.Errorf("name/seed = %q/%d", s.Name, s.Seed)
	}
	if s.Fleet.Size != 8 || s.Fleet.Startup != "linear" {
		t.Errorf("fleet = %+v", s.Fleet)
	}
	if s.Workload.Start != s.Fleet.Over {
		t.Errorf("workload.start default = %v, want fleet.over %v", s.Workload.Start, s.Fleet.Over)
	}
	if len(s.Events) != 1 || len(s.Asserts) != 4 {
		t.Errorf("events/asserts = %d/%d", len(s.Events), len(s.Asserts))
	}
}

// rejectCases are spec files Parse must refuse. A nonzero line is the
// line number the error must name; the decoder cases cover each error
// class in each section.
var rejectCases = []struct {
	name, src, wantSub string
	line               int
}{
	{"no name", "duration: 5s\nfleet:\n  size: 2", "missing required key", 0},
	{"bad startup", "name: x\nfleet:\n  size: 2\n  startup: sideways", "startup", 0},
	{"bad verb", "name: x\nfleet:\n  size: 2\nevents:\n  - at: 1s\n    do: explode 3", "unknown verb", 5},
	{"bad target", "name: x\nfleet:\n  size: 2\nevents:\n  - at: 1s\n    do: crash 9", "bad node target", 5},
	{"bad assert", "name: x\nfleet:\n  size: 2\nassert:\n  vibes_min: 1", "unknown assertion", 5},
	{"bad decision", "name: x\nfleet:\n  size: 2\nassert:\n  decisions_frolic_min: 1", "unknown decision action", 5},
	{"event late", "name: x\nduration: 5s\nfleet:\n  size: 2\n  over: 1s\nevents:\n  - at: 9s\n    do: heal", "outside", 7},
	{"stress kind", "name: x\nfleet:\n  size: 2\nstress:\n  - kind: gremlins", "unknown stress kind", 5},
	{"arrivals, no objects", "name: x\nfleet:\n  size: 2\n  objects: 0\nworkload:\n  rate: 2", "fleet.objects", 0},
	{"spike, no objects", "name: x\nfleet:\n  size: 2\n  objects: 0\nworkload:\n  rate: 0\nevents:\n  - at: 1s\n    do: spike 5 over 1s", "fleet.objects", 0},
	{"unknown top-level key", "name: x\nfleet:\n  size: 2\nbogus: 1", `key "bogus"`, 4},
	{"unknown net key", "name: x\nfleet:\n  size: 2\nnet:\n  bogus: 1", `key "bogus"`, 5},
	{"unknown fleet key", "name: x\nfleet:\n  size: 2\n  bogus: 1", `key "bogus"`, 4},
	{"unknown template key", "name: x\nfleet:\n  size: 2\n  templates:\n    - name: a\n      bogus: 1", `key "bogus"`, 6},
	{"unknown workload key", "name: x\nfleet:\n  size: 2\nworkload:\n  bogus: 1", `key "bogus"`, 5},
	{"unknown event key", "name: x\nfleet:\n  size: 2\nevents:\n  - at: 1s\n    bogus: heal", `key "bogus"`, 6},
	{"unknown stress key", "name: x\nfleet:\n  size: 2\nstress:\n  - kind: churn\n    bogus: 1", `key "bogus"`, 6},
	{"assert bound not scalar", "name: x\nfleet:\n  size: 2\nassert:\n  submitted_min:\n    - 1", "must have a scalar bound", 6},
	{"mapping for scalar", "name: x\nseed:\n  a: 1\nfleet:\n  size: 2", "seed must be a scalar, got a mapping", 3},
	{"scalar for mapping", "name: x\nfleet: 3", "fleet must be a mapping", 2},
	{"scalar for sequence", "name: x\nfleet:\n  size: 2\nevents: heal", "events must be a sequence", 4},
	{"non-integer", "name: x\nfleet:\n  size: two", `"two" is not an integer`, 3},
	{"negative seed", "name: x\nseed: -1\nfleet:\n  size: 2", `"-1" is not an unsigned integer`, 2},
	{"non-number", "name: x\nfleet:\n  size: 2\n  qualified: most", `"most" is not a number`, 4},
	{"duration without unit", "name: x\nduration: 30\nfleet:\n  size: 2", "needs a unit", 2},
	{"protect not a sequence", "name: x\nfleet:\n  size: 2\nstress:\n  - kind: churn\n    protect: 3", "protect must be a sequence", 6},
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, tc := range rejectCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
			if want := fmt.Sprintf("line %d: ", tc.line); tc.line > 0 && !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("err = %v, want prefix %q", err, want)
			}
		})
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := mustParse(t, basicScenario)
	p1, err := Expand(s, s.Seed)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	s2 := mustParse(t, basicScenario)
	p2, err := Expand(s2, s2.Seed)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(p1.Nodes, p2.Nodes) {
		t.Error("equal-seed expansions differ in nodes")
	}
	if !reflect.DeepEqual(p1.Actions, p2.Actions) {
		t.Error("equal-seed expansions differ in actions")
	}
	p3, err := Expand(s, s.Seed+1)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if reflect.DeepEqual(p1.Actions, p3.Actions) {
		t.Error("different seeds produced identical action plans")
	}
	// Node index order must equal start-time order.
	for i := 1; i < len(p1.Nodes); i++ {
		if p1.Nodes[i].StartAt < p1.Nodes[i-1].StartAt {
			t.Errorf("node %d starts at %v before node %d at %v",
				i, p1.Nodes[i].StartAt, i-1, p1.Nodes[i-1].StartAt)
		}
		if b := p1.Nodes[i].Bootstrap; b < 0 || b >= i {
			t.Errorf("node %d bootstraps through %d (not an earlier node)", i, b)
		}
	}
}

func TestExpandStressBlocks(t *testing.T) {
	src := `
name: stress
seed: 3
duration: 30s
fleet:
  size: 10
  over: 2s
workload:
  rate: 0
stress:
  - kind: churn
    from: 5s
    to: 25s
    rate: 0.1
    protect: [0]
  - kind: domain-kill
    at: 10s
    count: 2
    protect: [0]
  - kind: partition-storm
    from: 12s
    to: 20s
    period: 4s
    groups: 2
`
	s := mustParse(t, src)
	p, err := Expand(s, s.Seed)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var churnEvents, kills, partitions, heals int
	for _, a := range p.Actions {
		switch a.Kind {
		case ActCrash, ActLeave:
			if a.A == 0 {
				t.Error("protected node 0 chosen as a chaos victim")
			}
			if a.At == 10*1e6 {
				kills++
			} else {
				churnEvents++
			}
		case ActPartition:
			partitions++
			if len(a.Groups) != 2 {
				t.Errorf("partition groups = %d", len(a.Groups))
			}
		case ActHealPairs:
			heals++
		}
	}
	if churnEvents == 0 {
		t.Error("churn block produced no events")
	}
	if kills != 2 {
		t.Errorf("domain-kill produced %d crashes, want 2", kills)
	}
	if partitions != 2 || heals != partitions {
		t.Errorf("storm epochs = %d, heals = %d (want 2 each)", partitions, heals)
	}
}

func TestRunSimBasicScenarioPasses(t *testing.T) {
	s := mustParse(t, basicScenario)
	p, err := Expand(s, s.Seed)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	rep := RunSim(p)
	if !rep.Pass {
		var b bytes.Buffer
		rep.Render(&b)
		t.Fatalf("basic scenario failed:\n%s", b.String())
	}
	if rep.Runtime != "sim" || rep.Scenario != "test-basic" {
		t.Errorf("report header = %+v", rep)
	}
}

// TestRunSimByteIdentical is the determinism gate: equal seed and equal
// file give a byte-identical session trace and a byte-identical
// assertion report.
func TestRunSimByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		s := mustParse(t, basicScenario)
		p, err := Expand(s, s.Seed)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		tr := trace.New()
		rep := RunSimTraced(p, tr)
		var trb, repb bytes.Buffer
		if err := tr.WriteJSONL(&trb); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		if err := rep.WriteJSON(&repb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return trb.Bytes(), repb.Bytes()
	}
	tr1, rep1 := run()
	tr2, rep2 := run()
	if !bytes.Equal(tr1, tr2) {
		t.Error("equal-seed scenario runs produced different traces")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("equal-seed scenario runs produced different reports:\n%s\nvs\n%s", rep1, rep2)
	}
}

// TestRunSimByteIdenticalDHT extends the determinism gate to the DHT
// discovery backend: iterative lookups, RPC timeouts and republish
// timers must all draw from the engine's deterministic streams, so
// equal-seed runs stay byte-identical down to the trace.
func TestRunSimByteIdenticalDHT(t *testing.T) {
	run := func() ([]byte, []byte) {
		src := strings.Replace(basicScenario, "seed: 7", "seed: 7\ndiscovery: dht", 1)
		s := mustParse(t, src)
		// The crash-rm + failover assertions stay: RM takeover must
		// behave identically when discovery rides the structured overlay.
		p, err := Expand(s, s.Seed)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		tr := trace.New()
		rep := RunSimTraced(p, tr)
		var trb, repb bytes.Buffer
		if err := tr.WriteJSONL(&trb); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		if err := rep.WriteJSON(&repb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return trb.Bytes(), repb.Bytes()
	}
	tr1, rep1 := run()
	tr2, rep2 := run()
	if !bytes.Equal(tr1, tr2) {
		t.Error("equal-seed DHT scenario runs produced different traces")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("equal-seed DHT scenario runs produced different reports:\n%s\nvs\n%s", rep1, rep2)
	}
}

// TestRunLiveSameFile drives the live goroutine runtime from the very
// same scenario text the sim test uses (pace-compressed), proving one
// file runs unmodified on both runtimes.
func TestRunLiveSameFile(t *testing.T) {
	if testing.Short() {
		t.Skip("live scenario takes ~2s wall")
	}
	src := strings.Replace(basicScenario, "name: test-basic", "name: test-basic-live", 1)
	s := mustParse(t, src)
	// Pace 10 compresses the 20s script into ~2s; heartbeat-scale
	// assertions (failover) do not hold at that compression, so only the
	// workload-side clauses are kept.
	s.Asserts = []AssertSpec{{Key: "submitted_min", Value: "5"}}
	p, err := Expand(s, s.Seed)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	rep, err := RunLive(p, LiveOptions{
		Pace:  10,
		Hooks: testHooks(),
	})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if rep.Runtime != "live" {
		t.Errorf("runtime = %q", rep.Runtime)
	}
	if !rep.Pass {
		var b bytes.Buffer
		rep.Render(&b)
		t.Fatalf("live scenario failed:\n%s", b.String())
	}
}

// testHooks supplies real clocks; test files are exempt from the
// package's determinism lint.
func testHooks() LiveHooks {
	start := time.Now()
	return LiveHooks{
		NowMicros:   func() int64 { return time.Since(start).Microseconds() },
		SleepMicros: func(us int64) { time.Sleep(time.Duration(us) * time.Microsecond) },
		Nanotime:    live.Nanotime,
	}
}
