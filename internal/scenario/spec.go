package scenario

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Spec is one decoded scenario file. Parse validates everything it can
// statically; Expand turns a Spec into a concrete deterministic Plan.
// The yaml tags name each field's key in the file; untagged fields are
// not read from it, and a Line field receives the mapping's line.
type Spec struct {
	Name     string   `yaml:"name"`
	Seed     uint64   `yaml:"seed"` // default seed; CLIs may override
	Duration sim.Time `yaml:"duration"`
	// Discovery selects the inter-domain discovery backend ("gossip" or
	// "dht"); empty uses the core default (gossip). CLIs may override.
	Discovery string       `yaml:"discovery"`
	Net       NetSpec      `yaml:"net"`
	Fleet     FleetSpec    `yaml:"fleet"`
	Workload  WorkloadSpec `yaml:"workload"`
	Events    []EventSpec  `yaml:"events"`
	Stress    []StressSpec `yaml:"stress"`
	Asserts   []AssertSpec `yaml:"assert"`
}

// NetSpec models the simulated network (ignored by the live runtime,
// which runs over real links).
type NetSpec struct {
	Latency sim.Time `yaml:"latency"`
	Jitter  float64  `yaml:"jitter"`
	Loss    float64  `yaml:"loss"`
}

// FleetSpec describes the peer population and its startup pattern.
type FleetSpec struct {
	Size      int            `yaml:"size"`
	Qualified float64        `yaml:"qualified"` // fraction forced to meet RM thresholds
	Services  int            `yaml:"services"`  // transcoders per peer
	Objects   int            `yaml:"objects"`   // catalog objects
	Replicas  int            `yaml:"replicas"`  // copies of each object
	Startup   string         `yaml:"startup"`   // "linear" | "flash" | "diurnal"
	Over      sim.Time       `yaml:"over"`
	Templates []TemplateSpec `yaml:"templates"`
}

// TemplateSpec is one weighted peer template. Zero-valued capability
// fields fall back to the heavy-tailed draws of cluster.DrawPeer.
type TemplateSpec struct {
	Name          string  `yaml:"name"`
	Weight        int     `yaml:"weight"`
	SpeedWU       float64 `yaml:"speed"`
	BandwidthKbps float64 `yaml:"bandwidth"`
	UptimeSec     float64 `yaml:"uptime"`
}

// WorkloadSpec parameterizes the request stream. Rate is the initial
// Poisson arrival rate; `rate` events on the timeline change it.
type WorkloadSpec struct {
	Rate         float64  `yaml:"rate"`
	Objects      int      `yaml:"objects"`
	ZipfS        float64  `yaml:"zipf"`
	Deadline     sim.Time `yaml:"deadline"`
	DurationMean sim.Time `yaml:"duration_mean"`
	Importance   int      `yaml:"importance"`
	Relaxed      float64  `yaml:"relaxed"`
	Start        sim.Time `yaml:"start"` // first arrival no earlier than this (default fleet.over)
}

// EventSpec is one timed command on the scenario timeline.
type EventSpec struct {
	At   sim.Time `yaml:"at"`
	Do   string   `yaml:"do"` // raw command, parsed by Expand
	Line int
}

// StressSpec is one seeded chaos block.
type StressSpec struct {
	Kind      string   `yaml:"kind"` // "churn" | "domain-kill" | "partition-storm"
	From      sim.Time `yaml:"from"`
	To        sim.Time `yaml:"to"`
	At        sim.Time `yaml:"at"`         // domain-kill
	Rate      float64  `yaml:"rate"`       // churn events/sec
	CrashFrac float64  `yaml:"crash_frac"` // churn crash (vs graceful leave) fraction
	Count     int      `yaml:"count"`      // domain-kill victims
	Period    sim.Time `yaml:"period"`     // partition-storm epoch length
	Groups    int      `yaml:"groups"`     // partition-storm group count
	Protect   []int    `yaml:"protect"`    // node indexes never chosen as victims
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
	if err := decode(root, "", reflect.ValueOf(s).Elem()); err != nil {
		return nil, err
	}
	return s, validate(s)
}

// Load reads and parses the scenario file at path. A non-empty
// discovery overrides the file's discovery backend (the CLIs'
// -discovery flag).
func Load(path, discovery string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	if discovery != "" {
		s.Discovery = discovery
	}
	return s, nil
}

func validate(s *Spec) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing required key \"name\"")
	}
	if s.Discovery != "" && s.Discovery != "gossip" && s.Discovery != "dht" {
		return fmt.Errorf("scenario %s: discovery must be \"gossip\" or \"dht\", got %q", s.Name, s.Discovery)
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
		if t.Name == "" {
			return fmt.Errorf("scenario %s: template missing name", s.Name)
		}
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
		if ev.Do == "" {
			return yerrf(ev.Line, "event missing \"do\"")
		}
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

// --- the decoder ---

var (
	timeType    = reflect.TypeOf(sim.Time(0))
	assertsType = reflect.TypeOf([]AssertSpec(nil))
)

// elemDefaults holds the value a sequence element starts from, for the
// element types whose defaults are not all zero.
var elemDefaults = map[reflect.Type]reflect.Value{
	reflect.TypeOf(TemplateSpec{}): reflect.ValueOf(TemplateSpec{Weight: 1}),
	reflect.TypeOf(StressSpec{}):   reflect.ValueOf(StressSpec{CrashFrac: 0.7}),
}

// decode stores n into v, following the yaml tags of v's struct types.
// It handles the kinds Spec uses: structs, slices, strings, int,
// uint64, float64 and sim.Time (written as a duration). path names n in
// errors; "" is the document root.
func decode(n *yNode, path string, v reflect.Value) error {
	switch {
	case v.Type() == assertsType:
		return decodeAsserts(n, v)
	case v.Kind() == reflect.Struct:
		return decodeStruct(n, path, v)
	case v.Kind() == reflect.Slice:
		if n.kind != ySeq {
			return yerrf(n.line, "%s must be a sequence", path)
		}
		elem := v.Type().Elem()
		out := reflect.MakeSlice(v.Type(), len(n.items), len(n.items))
		for i, item := range n.items {
			if d, ok := elemDefaults[elem]; ok {
				out.Index(i).Set(d)
			}
			if err := decode(item, fmt.Sprintf("%s[%d]", path, i), out.Index(i)); err != nil {
				return err
			}
		}
		v.Set(out)
		return nil
	}
	if n.kind != yScalar {
		return yerrf(n.line, "%s must be a scalar, got a %s", path, kindName(n.kind))
	}
	return decodeScalar(n, path, v)
}

func decodeStruct(n *yNode, path string, v reflect.Value) error {
	where := path
	if where == "" {
		where = "the scenario file"
	}
	if n.kind != yMap {
		return yerrf(n.line, "%s must be a mapping", where)
	}
	if f := v.FieldByName("Line"); f.IsValid() {
		f.SetInt(int64(n.line))
	}
	for i, key := range n.keys {
		f, ok := fieldByTag(v, key)
		if !ok {
			return yerrf(n.vals[i].line, "unknown key %q in %s", key, where)
		}
		if path != "" {
			key = path + "." + key
		}
		if err := decode(n.vals[i], key, f); err != nil {
			return err
		}
	}
	return nil
}

// fieldByTag returns the field of struct v whose yaml tag is key.
func fieldByTag(v reflect.Value, key string) (reflect.Value, bool) {
	for i := 0; i < v.NumField(); i++ {
		if key != "" && v.Type().Field(i).Tag.Get("yaml") == key {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

func decodeScalar(n *yNode, path string, v reflect.Value) error {
	s := n.scalar
	switch {
	case v.Type() == timeType:
		d, err := parseDur(s)
		if err != nil {
			return yerrf(n.line, "%s: %v", path, err)
		}
		v.SetInt(int64(d))
	case v.Kind() == reflect.String:
		v.SetString(s)
	case v.Kind() == reflect.Int:
		x, err := strconv.Atoi(s)
		if err != nil {
			return yerrf(n.line, "%s: %q is not an integer", path, s)
		}
		v.SetInt(int64(x))
	case v.Kind() == reflect.Uint64:
		x, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return yerrf(n.line, "%s: %q is not an unsigned integer", path, s)
		}
		v.SetUint(x)
	case v.Kind() == reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return yerrf(n.line, "%s: %q is not a number", path, s)
		}
		v.SetFloat(x)
	default:
		panic("scenario: no decoder for " + v.Type().String())
	}
	return nil
}

// decodeAsserts keeps the assert mapping's clauses in file order.
func decodeAsserts(n *yNode, v reflect.Value) error {
	if n.kind != yMap {
		return yerrf(n.line, "assert must be a mapping")
	}
	out := make([]AssertSpec, 0, len(n.keys))
	for i, key := range n.keys {
		val := n.vals[i]
		if val.kind != yScalar {
			return yerrf(val.line, "assert %s must have a scalar bound", key)
		}
		out = append(out, AssertSpec{Key: key, Value: val.scalar, Line: val.line})
	}
	v.Set(reflect.ValueOf(out))
	return nil
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
