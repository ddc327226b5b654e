package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Spec is one decoded scenario file. Parse validates everything it can
// statically; Expand turns a Spec into a concrete deterministic Plan.
type Spec struct {
	Name     string
	Seed     uint64 // default seed; CLIs may override
	Duration sim.Time
	// Discovery selects the inter-domain discovery backend ("gossip" or
	// "dht"); empty uses the core default (gossip). CLIs may override.
	Discovery string
	Net       NetSpec
	Fleet     FleetSpec
	Workload  WorkloadSpec
	Events    []EventSpec
	Stress    []StressSpec
	Asserts   []AssertSpec
}

// NetSpec models the simulated network (ignored by the live runtime,
// which runs over real links).
type NetSpec struct {
	Latency sim.Time
	Jitter  float64
	Loss    float64
}

// FleetSpec describes the peer population and its startup pattern.
type FleetSpec struct {
	Size      int
	Qualified float64 // fraction forced to meet RM thresholds
	Services  int     // transcoders per peer
	Objects   int     // catalog objects
	Replicas  int     // copies of each object
	Startup   string  // "linear" | "flash" | "diurnal"
	Over      sim.Time
	Templates []TemplateSpec
}

// TemplateSpec is one weighted peer template. Zero-valued capability
// fields fall back to the heavy-tailed draws of cluster.PeerSpecs.
type TemplateSpec struct {
	Name          string
	Weight        int
	SpeedWU       float64
	BandwidthKbps float64
	UptimeSec     float64
}

// WorkloadSpec parameterizes the request stream. Rate is the initial
// Poisson arrival rate; `rate` events on the timeline change it.
type WorkloadSpec struct {
	Rate         float64
	Objects      int
	ZipfS        float64
	Deadline     sim.Time
	DurationMean sim.Time
	Importance   int
	Relaxed      float64
	Start        sim.Time // first arrival no earlier than this (default fleet.over)
}

// EventSpec is one timed command on the scenario timeline.
type EventSpec struct {
	At   sim.Time
	Do   string // raw command, parsed by Expand
	Line int
}

// StressSpec is one seeded chaos block.
type StressSpec struct {
	Kind      string // "churn" | "domain-kill" | "partition-storm"
	From, To  sim.Time
	At        sim.Time // domain-kill
	Rate      float64  // churn events/sec
	CrashFrac float64  // churn crash (vs graceful leave) fraction
	Count     int      // domain-kill victims
	Period    sim.Time // partition-storm epoch length
	Groups    int      // partition-storm group count
	Protect   []int    // node indexes never chosen as victims
	Line      int
}

// AssertSpec is one first-class assertion clause, preserved in file
// order. The key encodes the check (see assert.go for the catalog).
type AssertSpec struct {
	Key   string
	Value string
	Line  int
}

// Target sentinels used in expanded plans. Node indexes are >= 0.
const (
	// TargetAny is the '*' wildcard in fault rules.
	TargetAny = -2
	// TargetRM names the current resource manager, resolved at fire time.
	TargetRM = -3
)

// Parse decodes and validates a scenario file.
func Parse(src []byte) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	if root.kind != yMap {
		return nil, yerrf(root.line, "scenario file must be a mapping at top level")
	}
	s := &Spec{
		Seed:     1,
		Duration: 30 * sim.Second,
		Net:      NetSpec{Latency: 10 * sim.Millisecond},
		Fleet: FleetSpec{
			Qualified: 0.6,
			Services:  2,
			Objects:   12,
			Replicas:  2,
			Startup:   "linear",
			Over:      5 * sim.Second,
		},
		Workload: WorkloadSpec{
			Rate:         1.0,
			ZipfS:        0.8,
			Deadline:     2 * sim.Second,
			DurationMean: 20 * sim.Second,
			Importance:   5,
			Relaxed:      0.3,
			Start:        -1, // default: fleet.Over
		},
	}
	for i, key := range root.keys {
		val := root.vals[i]
		switch key {
		case "name":
			s.Name, err = wantScalar(val, key)
		case "seed":
			s.Seed, err = wantUint(val, key)
		case "duration":
			s.Duration, err = wantDur(val, key)
		case "discovery":
			s.Discovery, err = wantScalar(val, key)
			if err == nil && s.Discovery != "gossip" && s.Discovery != "dht" {
				return nil, yerrf(val.line, "discovery must be \"gossip\" or \"dht\", got %q", s.Discovery)
			}
		case "net":
			err = parseNet(val, &s.Net)
		case "fleet":
			err = parseFleet(val, &s.Fleet)
		case "workload":
			err = parseWorkload(val, &s.Workload)
		case "events":
			s.Events, err = parseEvents(val)
		case "stress":
			s.Stress, err = parseStress(val)
		case "assert":
			s.Asserts, err = parseAsserts(val)
		default:
			return nil, yerrf(val.line, "unknown top-level key %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, validate(s)
}

func validate(s *Spec) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing required key \"name\"")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration must be positive", s.Name)
	}
	if s.Fleet.Size < 1 {
		return fmt.Errorf("scenario %s: fleet.size must be >= 1", s.Name)
	}
	switch s.Fleet.Startup {
	case "linear", "flash", "diurnal":
	default:
		return fmt.Errorf("scenario %s: fleet.startup %q (want linear, flash or diurnal)", s.Name, s.Fleet.Startup)
	}
	if s.Fleet.Over < 0 || s.Fleet.Over >= s.Duration {
		return fmt.Errorf("scenario %s: fleet.over must be in [0, duration)", s.Name)
	}
	if s.Workload.Start < 0 {
		s.Workload.Start = s.Fleet.Over
	}
	total := 0
	for _, t := range s.Fleet.Templates {
		if t.Weight < 0 {
			return fmt.Errorf("scenario %s: template %q has negative weight", s.Name, t.Name)
		}
		total += t.Weight
	}
	if len(s.Fleet.Templates) > 0 && total == 0 {
		return fmt.Errorf("scenario %s: fleet templates have zero total weight", s.Name)
	}
	arrivals := s.Workload.Rate > 0
	for _, ev := range s.Events {
		if ev.At < 0 || ev.At > s.Duration {
			return yerrf(ev.Line, "event at %v outside [0, duration]", ev.At)
		}
		c, err := parseCommand(ev, s.Fleet.Size)
		if err != nil {
			return err
		}
		arrivals = arrivals || (c.kind == cmdRate && c.rate > 0) || c.kind == cmdSpike
	}
	if arrivals && s.Workload.Objects <= 0 && s.Fleet.Objects <= 0 {
		return fmt.Errorf("scenario %s: task arrivals need objects to request: set fleet.objects or workload.objects > 0", s.Name)
	}
	for _, st := range s.Stress {
		if err := validateStress(s, st); err != nil {
			return err
		}
	}
	for _, a := range s.Asserts {
		if _, err := compileAssert(a); err != nil {
			return err
		}
	}
	return nil
}

func validateStress(s *Spec, st StressSpec) error {
	switch st.Kind {
	case "churn":
		if st.Rate <= 0 {
			return yerrf(st.Line, "churn block needs rate > 0")
		}
		if st.To <= st.From {
			return yerrf(st.Line, "churn block needs from < to")
		}
	case "domain-kill":
		if st.Count < 1 {
			return yerrf(st.Line, "domain-kill block needs count >= 1")
		}
		if st.At <= 0 || st.At > s.Duration {
			return yerrf(st.Line, "domain-kill at %v outside (0, duration]", st.At)
		}
	case "partition-storm":
		if st.Period <= 0 {
			return yerrf(st.Line, "partition-storm block needs period > 0")
		}
		if st.Groups < 2 {
			return yerrf(st.Line, "partition-storm block needs groups >= 2")
		}
		if st.To <= st.From {
			return yerrf(st.Line, "partition-storm block needs from < to")
		}
	default:
		return yerrf(st.Line, "unknown stress kind %q (want churn, domain-kill or partition-storm)", st.Kind)
	}
	for _, p := range st.Protect {
		if p < 0 || p >= s.Fleet.Size {
			return yerrf(st.Line, "protect index %d outside fleet", p)
		}
	}
	return nil
}

// --- section decoders ---

func parseNet(n *yNode, out *NetSpec) error {
	if n.kind != yMap {
		return yerrf(n.line, "net must be a mapping")
	}
	var err error
	for i, key := range n.keys {
		val := n.vals[i]
		switch key {
		case "latency":
			out.Latency, err = wantDur(val, key)
		case "jitter":
			out.Jitter, err = wantFloat(val, key)
		case "loss":
			out.Loss, err = wantFloat(val, key)
		default:
			return yerrf(val.line, "unknown net key %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseFleet(n *yNode, out *FleetSpec) error {
	if n.kind != yMap {
		return yerrf(n.line, "fleet must be a mapping")
	}
	var err error
	for i, key := range n.keys {
		val := n.vals[i]
		switch key {
		case "size":
			out.Size, err = wantInt(val, key)
		case "qualified":
			out.Qualified, err = wantFloat(val, key)
		case "services":
			out.Services, err = wantInt(val, key)
		case "objects":
			out.Objects, err = wantInt(val, key)
		case "replicas":
			out.Replicas, err = wantInt(val, key)
		case "startup":
			out.Startup, err = wantScalar(val, key)
		case "over":
			out.Over, err = wantDur(val, key)
		case "templates":
			out.Templates, err = parseTemplates(val)
		default:
			return yerrf(val.line, "unknown fleet key %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseTemplates(n *yNode) ([]TemplateSpec, error) {
	if n.kind != ySeq {
		return nil, yerrf(n.line, "fleet.templates must be a sequence")
	}
	var out []TemplateSpec
	for _, item := range n.items {
		if item.kind != yMap {
			return nil, yerrf(item.line, "template must be a mapping")
		}
		t := TemplateSpec{Weight: 1}
		var err error
		for i, key := range item.keys {
			val := item.vals[i]
			switch key {
			case "name":
				t.Name, err = wantScalar(val, key)
			case "weight":
				t.Weight, err = wantInt(val, key)
			case "speed":
				t.SpeedWU, err = wantFloat(val, key)
			case "bandwidth":
				t.BandwidthKbps, err = wantFloat(val, key)
			case "uptime":
				t.UptimeSec, err = wantFloat(val, key)
			default:
				return nil, yerrf(val.line, "unknown template key %q", key)
			}
			if err != nil {
				return nil, err
			}
		}
		if t.Name == "" {
			return nil, yerrf(item.line, "template missing name")
		}
		out = append(out, t)
	}
	return out, nil
}

func parseWorkload(n *yNode, out *WorkloadSpec) error {
	if n.kind != yMap {
		return yerrf(n.line, "workload must be a mapping")
	}
	var err error
	for i, key := range n.keys {
		val := n.vals[i]
		switch key {
		case "rate":
			out.Rate, err = wantFloat(val, key)
		case "objects":
			out.Objects, err = wantInt(val, key)
		case "zipf":
			out.ZipfS, err = wantFloat(val, key)
		case "deadline":
			out.Deadline, err = wantDur(val, key)
		case "duration_mean":
			out.DurationMean, err = wantDur(val, key)
		case "importance":
			out.Importance, err = wantInt(val, key)
		case "relaxed":
			out.Relaxed, err = wantFloat(val, key)
		case "start":
			out.Start, err = wantDur(val, key)
		default:
			return yerrf(val.line, "unknown workload key %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseEvents(n *yNode) ([]EventSpec, error) {
	if n.kind != ySeq {
		return nil, yerrf(n.line, "events must be a sequence")
	}
	var out []EventSpec
	for _, item := range n.items {
		if item.kind != yMap {
			return nil, yerrf(item.line, "event must be a mapping with at/do")
		}
		ev := EventSpec{Line: item.line}
		var err error
		for i, key := range item.keys {
			val := item.vals[i]
			switch key {
			case "at":
				ev.At, err = wantDur(val, key)
			case "do":
				ev.Do, err = wantScalar(val, key)
			default:
				return nil, yerrf(val.line, "unknown event key %q", key)
			}
			if err != nil {
				return nil, err
			}
		}
		if ev.Do == "" {
			return nil, yerrf(item.line, "event missing \"do\"")
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseStress(n *yNode) ([]StressSpec, error) {
	if n.kind != ySeq {
		return nil, yerrf(n.line, "stress must be a sequence")
	}
	var out []StressSpec
	for _, item := range n.items {
		if item.kind != yMap {
			return nil, yerrf(item.line, "stress block must be a mapping")
		}
		st := StressSpec{CrashFrac: 0.7, Line: item.line}
		var err error
		for i, key := range item.keys {
			val := item.vals[i]
			switch key {
			case "kind":
				st.Kind, err = wantScalar(val, key)
			case "from":
				st.From, err = wantDur(val, key)
			case "to":
				st.To, err = wantDur(val, key)
			case "at":
				st.At, err = wantDur(val, key)
			case "rate":
				st.Rate, err = wantFloat(val, key)
			case "crash_frac":
				st.CrashFrac, err = wantFloat(val, key)
			case "count":
				st.Count, err = wantInt(val, key)
			case "period":
				st.Period, err = wantDur(val, key)
			case "groups":
				st.Groups, err = wantInt(val, key)
			case "protect":
				st.Protect, err = wantIntList(val, key)
			default:
				return nil, yerrf(val.line, "unknown stress key %q", key)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, st)
	}
	return out, nil
}

func parseAsserts(n *yNode) ([]AssertSpec, error) {
	if n.kind != yMap {
		return nil, yerrf(n.line, "assert must be a mapping")
	}
	var out []AssertSpec
	for i, key := range n.keys {
		val := n.vals[i]
		if val.kind != yScalar {
			return nil, yerrf(val.line, "assert %s must have a scalar bound", key)
		}
		out = append(out, AssertSpec{Key: key, Value: val.scalar, Line: val.line})
	}
	return out, nil
}

// --- scalar coercions ---

func wantScalar(n *yNode, key string) (string, error) {
	if n.kind != yScalar {
		return "", yerrf(n.line, "%s must be a scalar, got a %s", key, kindName(n.kind))
	}
	return n.scalar, nil
}

func wantInt(n *yNode, key string) (int, error) {
	s, err := wantScalar(n, key)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, yerrf(n.line, "%s: %q is not an integer", key, s)
	}
	return v, nil
}

func wantUint(n *yNode, key string) (uint64, error) {
	s, err := wantScalar(n, key)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, yerrf(n.line, "%s: %q is not an unsigned integer", key, s)
	}
	return v, nil
}

func wantFloat(n *yNode, key string) (float64, error) {
	s, err := wantScalar(n, key)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, yerrf(n.line, "%s: %q is not a number", key, s)
	}
	return v, nil
}

func wantDur(n *yNode, key string) (sim.Time, error) {
	s, err := wantScalar(n, key)
	if err != nil {
		return 0, err
	}
	d, err := parseDur(s)
	if err != nil {
		return 0, yerrf(n.line, "%s: %v", key, err)
	}
	return d, nil
}

func wantIntList(n *yNode, key string) ([]int, error) {
	if n.kind != ySeq {
		return nil, yerrf(n.line, "%s must be a sequence of integers", key)
	}
	out := make([]int, 0, len(n.items))
	for _, item := range n.items {
		v, err := wantInt(item, key)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseDur parses "250ms"/"2s"/"1.5m"/"300us" into virtual time.
func parseDur(s string) (sim.Time, error) {
	unit := sim.Time(0)
	num := s
	switch {
	case strings.HasSuffix(s, "us"):
		unit, num = sim.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, num = sim.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, num = sim.Second, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		unit, num = sim.Minute, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("duration %q needs a unit (us, ms, s, m)", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return sim.Time(v * float64(unit)), nil
}

// fmtDur renders a virtual duration compactly for reports.
func fmtDur(d sim.Time) string {
	switch {
	case d == 0:
		return "0s"
	case d%sim.Second == 0:
		return fmt.Sprintf("%ds", d/sim.Second)
	case d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	default:
		return fmt.Sprintf("%dus", d)
	}
}
