package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file turns a validated Spec into a concrete Plan: every node,
// start time, task arrival, chaos victim and fault change is resolved
// here, before either runtime starts, so the sim and the live runtime
// execute the same action sequence. All randomness flows from labeled
// rng streams derived from the run seed — two expansions with equal
// (file, seed) are identical, which is what makes equal-seed sim runs
// byte-reproducible.
//
// Victims of random chaos draws (churn, correlated kills, partition
// groups) are resolved against a static aliveness model maintained
// during expansion, not against runtime state. The model tracks planned
// starts/crashes/leaves; it cannot see runtime-resolved targets (the
// `rm` sentinel), so a later draw may pick an already-dead node — the
// runner treats impairing a dead node as a no-op, which keeps the plan
// deterministic without coupling expansion to either runtime.

// ActionKind enumerates plan actions.
type ActionKind int

const (
	ActStart ActionKind = iota
	ActSubmit
	ActCrash
	ActLeave
	ActSever
	ActHeal
	ActHealAll
	ActFault
	ActLoad
	ActPartition
	ActHealPairs
	ActCatalog
)

// String names an action kind for traces and errors.
func (k ActionKind) String() string {
	switch k {
	case ActStart:
		return "start"
	case ActSubmit:
		return "submit"
	case ActCrash:
		return "crash"
	case ActLeave:
		return "leave"
	case ActSever:
		return "sever"
	case ActHeal:
		return "heal"
	case ActHealAll:
		return "heal-all"
	case ActFault:
		return "fault"
	case ActLoad:
		return "load"
	case ActPartition:
		return "partition"
	case ActHealPairs:
		return "heal-pairs"
	case ActCatalog:
		return "catalog"
	default:
		return "unknown"
	}
}

// Fault is the runtime-neutral impairment rule carried by ActFault.
// Zero values clear the rule for the pair.
type Fault struct {
	Drop        float64
	Dup         float64
	DelayMicros int64
}

// Action is one concrete timed step of an expanded plan. A and B are
// node indexes (or TargetAny/TargetRM sentinels).
type Action struct {
	At     sim.Time
	Kind   ActionKind
	A, B   int
	Fault  Fault
	Spec   proto.TaskSpec
	Frac   float64  // ActLoad background-load fraction
	Groups [][]int  // ActPartition
	Pairs  [][2]int // ActHealPairs
	Op     string   // ActCatalog: "add" or "rm"
	Name   string   // ActCatalog object name
}

// NodeSpec is one planned peer: nodes are indexed 0..n-1 in start
// order, and index 0 founds domain 0.
type NodeSpec struct {
	StartAt   sim.Time
	Bootstrap int // index of the join contact; -1 for the founder
	Template  string
	Info      proto.PeerInfo
}

// Plan is a fully expanded scenario, ready for either runtime.
type Plan struct {
	Spec    *Spec
	Seed    uint64
	Catalog cluster.Catalog
	Nodes   []NodeSpec
	Actions []Action // sorted by At; equal times keep expansion order
}

// CatalogObject materializes the object a `catalog X add O` command
// installs. Format, hash and size derive from the name alone, so both
// runtimes (and every part of a multi-process fleet) build an identical
// object without coordinating.
func (p *Plan) CatalogObject(name string) media.Object {
	h := fnv.New64a()
	h.Write([]byte(name))
	hv := h.Sum64()
	f := p.Catalog.Sources[hv%uint64(len(p.Catalog.Sources))]
	return media.Object{
		Name:   name,
		Format: f,
		Hash:   rng.Derive(hv, uint64(len(name))),
		Bytes:  int64(20 * float64(f.BitrateKbps) * 1000 / 8),
	}
}

// stream derives the labeled rng substream of a run seed. Distinct
// labels give independent streams, so e.g. adding workload draws cannot
// shift chaos victim draws.
func stream(seed uint64, label string) *rng.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rng.New(rng.Derive(seed, h.Sum64()))
}

// Expand resolves a Spec into a Plan under the given seed (callers
// normally pass spec.Seed; CLIs may override).
func Expand(s *Spec, seed uint64) (*Plan, error) {
	p := &Plan{Spec: s, Seed: seed, Catalog: cluster.StandardCatalog()}
	p.Nodes = expandFleet(s, seed, p.Catalog)

	// Proto-actions: everything with a time, some with victims still
	// unresolved. prio orders equal-time items (starts first, so joins
	// precede the submissions and faults of the same instant).
	type protoAct struct {
		at   sim.Time
		prio int
		seq  int
		// one of:
		start  int  // node index, -1 when not a start
		cmd    *cmd // parsed event command
		churn  *churnDraw
		kill   *StressSpec
		storm  *stormEpoch
		submit *proto.TaskSpec
	}
	var pas []protoAct
	add := func(pa protoAct) {
		pa.seq = len(pas)
		pas = append(pas, pa)
	}
	for i, n := range p.Nodes {
		add(protoAct{at: n.StartAt, prio: 0, start: i})
	}

	// Timed event commands; `rate` commands feed the arrival track only.
	var rateChanges []rateChange
	for _, ev := range s.Events {
		c, err := parseCommand(ev, s.Fleet.Size)
		if err != nil {
			return nil, err
		}
		switch c.kind {
		case cmdRate:
			rateChanges = append(rateChanges, rateChange{at: ev.At, rate: c.rate})
			continue
		case cmdSpike:
			continue // expanded into arrivals below
		}
		add(protoAct{at: ev.At, prio: 1, start: -1, cmd: c})
	}

	// Workload arrivals against the piecewise-constant rate track.
	taskR := stream(seed, "tasks")
	var zipf *rng.Zipf
	objects := s.Workload.Objects
	if objects <= 0 {
		objects = s.Fleet.Objects
	}
	if objects > 0 {
		zipf = rng.NewZipf(taskR.Split(), objects, s.Workload.ZipfS)
	}
	mix := workload.TaskMix{
		DeadlineMicros:   int64(s.Workload.Deadline),
		DurationMeanSec:  float64(s.Workload.DurationMean) / 1e6,
		ChunkSec:         1,
		ImportanceLevels: s.Workload.Importance,
		RelaxedFrac:      s.Workload.Relaxed,
	}
	seqID := 0
	drawSpec := func() proto.TaskSpec {
		seqID++
		return workload.DrawSpec(fmt.Sprintf("sc-%d", seqID), mix, p.Catalog, taskR, zipf)
	}
	for _, at := range arrivalTimes(s, seed, rateChanges) {
		spec := drawSpec()
		add(protoAct{at: at, prio: 1, start: -1, submit: &spec})
	}

	// Spike commands become extra pre-drawn arrivals.
	spikeR := stream(seed, "spikes")
	for _, ev := range s.Events {
		c, _ := parseCommand(ev, s.Fleet.Size)
		if c == nil || c.kind != cmdSpike {
			continue
		}
		for i := 0; i < c.spikeN; i++ {
			at := ev.At + sim.Time(spikeR.Float64()*float64(c.spikeOver))
			spec := drawSpec()
			add(protoAct{at: at, prio: 1, start: -1, submit: &spec})
		}
	}

	// Stress blocks: pre-draw event times; victims resolve in the walk.
	chaosR := stream(seed, "chaos")
	for bi := range s.Stress {
		st := &s.Stress[bi]
		switch st.Kind {
		case "churn":
			for t := st.From; ; {
				t += sim.Time(chaosR.Exp(1/st.Rate) * 1e6)
				if t >= st.To || t >= s.Duration {
					break
				}
				add(protoAct{at: t, prio: 1, start: -1,
					churn: &churnDraw{crash: chaosR.Bool(st.CrashFrac), block: st}})
			}
		case "domain-kill":
			add(protoAct{at: st.At, prio: 1, start: -1, kill: st})
		case "partition-storm":
			for t := st.From; t < st.To && t < s.Duration; t += st.Period {
				end := t + st.Period
				if end > st.To {
					end = st.To
				}
				add(protoAct{at: t, prio: 1, start: -1,
					storm: &stormEpoch{block: st, end: end}})
			}
		}
	}

	sort.SliceStable(pas, func(i, j int) bool {
		if pas[i].at != pas[j].at {
			return pas[i].at < pas[j].at
		}
		return pas[i].prio < pas[j].prio
	})

	// Resolution walk: maintain the static aliveness model, draw victims
	// and origins from their own streams in walk order.
	victimR := stream(seed, "victims")
	originR := stream(seed, "origins")
	alive := make([]bool, s.Fleet.Size)
	liveSet := func(protect []int) []int {
		var out []int
		for i, a := range alive {
			if a && !containsInt(protect, i) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, pa := range pas {
		switch {
		case pa.start >= 0:
			alive[pa.start] = true
			p.Actions = append(p.Actions, Action{At: pa.at, Kind: ActStart, A: pa.start})
		case pa.submit != nil:
			cands := liveSet(nil)
			if len(cands) == 0 {
				continue
			}
			origin := cands[originR.Intn(len(cands))]
			p.Actions = append(p.Actions, Action{At: pa.at, Kind: ActSubmit, A: origin, Spec: *pa.submit})
		case pa.churn != nil:
			cands := liveSet(pa.churn.block.Protect)
			if len(cands) == 0 {
				continue
			}
			v := cands[victimR.Intn(len(cands))]
			alive[v] = false
			kind := ActLeave
			if pa.churn.crash {
				kind = ActCrash
			}
			p.Actions = append(p.Actions, Action{At: pa.at, Kind: kind, A: v})
		case pa.kill != nil:
			cands := liveSet(pa.kill.Protect)
			count := pa.kill.Count
			if count > len(cands) {
				count = len(cands)
			}
			perm := victimR.Perm(len(cands))
			for _, j := range perm[:count] {
				v := cands[j]
				alive[v] = false
				p.Actions = append(p.Actions, Action{At: pa.at, Kind: ActCrash, A: v})
			}
		case pa.storm != nil:
			cands := liveSet(pa.storm.block.Protect)
			if len(cands) < 2 {
				continue
			}
			groups := make([][]int, pa.storm.block.Groups)
			for _, v := range cands {
				g := victimR.Intn(len(groups))
				groups[g] = append(groups[g], v)
			}
			p.Actions = append(p.Actions, Action{At: pa.at, Kind: ActPartition, Groups: groups})
			p.Actions = append(p.Actions, Action{At: pa.storm.end, Kind: ActHealPairs, Pairs: CrossPairs(groups)})
		case pa.cmd != nil:
			acts := pa.cmd.expand(pa.at)
			for _, a := range acts {
				// Keep the model honest for concrete lifecycle targets.
				if (a.Kind == ActCrash || a.Kind == ActLeave) && a.A >= 0 {
					alive[a.A] = false
				}
			}
			p.Actions = append(p.Actions, acts...)
		}
	}
	sort.SliceStable(p.Actions, func(i, j int) bool { return p.Actions[i].At < p.Actions[j].At })
	return p, nil
}

type churnDraw struct {
	crash bool
	block *StressSpec
}

type stormEpoch struct {
	block *StressSpec
	end   sim.Time
}

type rateChange struct {
	at   sim.Time
	rate float64
}

// CrossPairs lists every directed-agnostic pair spanning two different
// groups — the links a partition severs.
func CrossPairs(groups [][]int) [][2]int {
	var out [][2]int
	for gi := 0; gi < len(groups); gi++ {
		for gj := gi + 1; gj < len(groups); gj++ {
			for _, a := range groups[gi] {
				for _, b := range groups[gj] {
					out = append(out, [2]int{a, b})
				}
			}
		}
	}
	return out
}

// expandFleet instantiates the weighted templates into start-ordered
// peer specs with services and objects placed from the catalog stream.
func expandFleet(s *Spec, seed uint64, cat cluster.Catalog) []NodeSpec {
	fleetR := stream(seed, "fleet")
	q := core.DefaultConfig().Qualify
	templates := s.Fleet.Templates
	if len(templates) == 0 {
		templates = []TemplateSpec{{Name: "default", Weight: 1}}
	}
	total := 0
	for _, t := range templates {
		total += t.Weight
	}
	nodes := make([]NodeSpec, s.Fleet.Size)
	infos := make([]proto.PeerInfo, s.Fleet.Size)
	for i := range nodes {
		pick := fleetR.Intn(total)
		var tpl TemplateSpec
		for _, t := range templates {
			if pick < t.Weight {
				tpl = t
				break
			}
			pick -= t.Weight
		}
		infos[i] = cluster.DrawPeer(fleetR, q, s.Fleet.Qualified, proto.PeerInfo{
			SpeedWU:       tpl.SpeedWU,
			BandwidthKbps: tpl.BandwidthKbps,
			UptimeSec:     tpl.UptimeSec,
		})
		nodes[i] = NodeSpec{Template: tpl.Name}
	}
	cat.Populate(stream(seed, "catalog"), infos, s.Fleet.Services, s.Fleet.Objects, s.Fleet.Replicas, 20)
	for i := range nodes {
		nodes[i].Info = infos[i]
	}

	// Start times by pattern; node 0 founds at t=0 in every pattern.
	startR := stream(seed, "startup")
	n := s.Fleet.Size
	times := make([]sim.Time, n)
	switch s.Fleet.Startup {
	case "linear":
		for i := 1; i < n; i++ {
			times[i] = s.Fleet.Over * sim.Time(i) / sim.Time(maxInt(1, n-1))
		}
	case "flash":
		// A quiet period, then the whole crowd lands within 200ms.
		for i := 1; i < n; i++ {
			times[i] = s.Fleet.Over + sim.Time(startR.Float64()*float64(200*sim.Millisecond))
		}
	case "diurnal":
		// Arrival density ∝ 1 - cos(2πt/over): a sinusoidal day with its
		// peak mid-window, sampled by rejection.
		for i := 1; i < n; i++ {
			for {
				x := startR.Float64()
				if startR.Float64()*2 < 1-math.Cos(2*math.Pi*x) {
					times[i] = sim.Time(x * float64(s.Fleet.Over))
					break
				}
			}
		}
	}
	// Node index order must equal start order (both runtimes assign IDs
	// by start order), so sort the non-founder tail by time.
	order := make([]int, n-1)
	for i := range order {
		order[i] = i + 1
	}
	sort.SliceStable(order, func(a, b int) bool { return times[order[a]] < times[order[b]] })
	out := make([]NodeSpec, n)
	out[0] = nodes[0]
	out[0].StartAt = 0
	out[0].Bootstrap = -1
	for rank, old := range order {
		i := rank + 1
		out[i] = nodes[old]
		out[i].StartAt = times[old]
		out[i].Bootstrap = fleetR.Intn(i) // any earlier-started node
	}
	return out
}

// arrivalTimes precomputes Poisson task arrivals over
// [workload.start, duration) by thinning against the maximum of the
// piecewise-constant rate track built from `rate` events.
func arrivalTimes(s *Spec, seed uint64, changes []rateChange) []sim.Time {
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].at < changes[j].at })
	rateAt := func(t sim.Time) float64 {
		r := s.Workload.Rate
		for _, c := range changes {
			if c.at <= t {
				r = c.rate
			}
		}
		return r
	}
	lambdaMax := s.Workload.Rate
	for _, c := range changes {
		if c.rate > lambdaMax {
			lambdaMax = c.rate
		}
	}
	if lambdaMax <= 0 {
		return nil
	}
	r := stream(seed, "arrivals")
	var out []sim.Time
	for t := s.Workload.Start; ; {
		t += sim.Time(r.Exp(1/lambdaMax) * 1e6)
		if t >= s.Duration {
			return out
		}
		if r.Float64() < rateAt(t)/lambdaMax {
			out = append(out, t)
		}
	}
}

// --- event command parsing ---

type cmdKind int

const (
	cmdAction cmdKind = iota // expands to concrete plan actions
	cmdRate                  // feeds the arrival track
	cmdSpike                 // expands to extra arrivals
)

// cmd is one parsed `do:` command.
type cmd struct {
	kind      cmdKind
	act       ActionKind // cmdAction
	a, b      int
	fault     Fault
	frac      float64
	groups    [][]int
	rate      float64  // cmdRate
	spikeN    int      // cmdSpike
	spikeOver sim.Time // cmdSpike
	op, name  string   // ActCatalog
}

// expand maps a parsed command to plan actions at time at.
func (c *cmd) expand(at sim.Time) []Action {
	switch c.act {
	case ActPartition:
		return []Action{{At: at, Kind: ActPartition, Groups: c.groups}}
	case ActFault:
		return []Action{{At: at, Kind: ActFault, A: c.a, B: c.b, Fault: c.fault}}
	case ActLoad:
		return []Action{{At: at, Kind: ActLoad, A: c.a, Frac: c.frac}}
	case ActCatalog:
		return []Action{{At: at, Kind: ActCatalog, A: c.a, Op: c.op, Name: c.name}}
	default:
		return []Action{{At: at, Kind: c.act, A: c.a, B: c.b}}
	}
}

// parseCommand parses one `do:` command string. The vocabulary:
//
//	sever A B        cut both directions between A and B
//	heal [A B]       remove every fault rule, or just the pair's
//	crash X          silent failure of X
//	leave X          graceful departure of X
//	rate R           set the workload arrival rate to R/sec
//	drop A B P       drop A→B messages with probability P
//	dup A B P        duplicate A→B messages with probability P
//	delay A B D      delay A→B messages by D
//	partition G|G    sever across explicit groups, e.g. 0,1|2,3
//	load X F         set X's background load to F of its speed
//	spike N over W   N extra task arrivals within W of the event time
//	catalog X add O  add object O to X's catalog (deterministic content)
//	catalog X rm O   remove object O from X's catalog
//
// Targets are node indexes, `rm` (the current resource manager,
// resolved at fire time) or `*` (any, in fault rules).
func parseCommand(ev EventSpec, fleetSize int) (*cmd, error) {
	f := strings.Fields(ev.Do)
	if len(f) == 0 {
		return nil, yerrf(ev.Line, "empty command")
	}
	bad := func(format string, args ...any) error {
		return yerrf(ev.Line, "command %q: %s", ev.Do, fmt.Sprintf(format, args...))
	}
	target := func(s string, allowAny bool) (int, error) {
		switch s {
		case "rm":
			return TargetRM, nil
		case "*":
			if !allowAny {
				return 0, bad("'*' is only valid in fault rules")
			}
			return TargetAny, nil
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 || v >= fleetSize {
			return 0, bad("bad node target %q (want an index < %d, rm or *)", s, fleetSize)
		}
		return v, nil
	}
	argc := func(n int) error {
		if len(f) != n {
			return bad("want %d argument(s), got %d", n-1, len(f)-1)
		}
		return nil
	}
	c := &cmd{}
	var err error
	switch f[0] {
	case "sever":
		if err = argc(3); err != nil {
			return nil, err
		}
		c.act = ActSever
		if c.a, err = target(f[1], true); err != nil {
			return nil, err
		}
		c.b, err = target(f[2], true)
	case "heal":
		switch len(f) {
		case 1:
			c.act = ActHealAll
		case 3:
			c.act = ActHeal
			if c.a, err = target(f[1], true); err != nil {
				return nil, err
			}
			c.b, err = target(f[2], true)
		default:
			return nil, bad("want 'heal' or 'heal A B'")
		}
	case "crash", "leave":
		if err = argc(2); err != nil {
			return nil, err
		}
		c.act = ActCrash
		if f[0] == "leave" {
			c.act = ActLeave
		}
		c.a, err = target(f[1], false)
	case "rate":
		if err = argc(2); err != nil {
			return nil, err
		}
		c.kind = cmdRate
		c.rate, err = strconv.ParseFloat(f[1], 64)
		if err != nil || c.rate < 0 {
			return nil, bad("bad rate %q", f[1])
		}
	case "drop", "dup", "delay":
		if err = argc(4); err != nil {
			return nil, err
		}
		c.act = ActFault
		if c.a, err = target(f[1], true); err != nil {
			return nil, err
		}
		if c.b, err = target(f[2], true); err != nil {
			return nil, err
		}
		switch f[0] {
		case "drop", "dup":
			p, perr := strconv.ParseFloat(f[3], 64)
			if perr != nil || p < 0 || p > 1 {
				return nil, bad("bad probability %q", f[3])
			}
			if f[0] == "drop" {
				c.fault.Drop = p
			} else {
				c.fault.Dup = p
			}
		case "delay":
			d, derr := parseDur(f[3])
			if derr != nil {
				return nil, bad("%v", derr)
			}
			c.fault.DelayMicros = int64(d)
		}
	case "partition":
		if err = argc(2); err != nil {
			return nil, err
		}
		for _, g := range strings.Split(f[1], "|") {
			var group []int
			for _, m := range strings.Split(g, ",") {
				v, terr := target(m, false)
				if terr != nil {
					return nil, terr
				}
				group = append(group, v)
			}
			c.groups = append(c.groups, group)
		}
		if len(c.groups) < 2 {
			return nil, bad("partition needs at least two |-separated groups")
		}
		c.act = ActPartition
	case "load":
		if err = argc(3); err != nil {
			return nil, err
		}
		c.act = ActLoad
		if c.a, err = target(f[1], false); err != nil {
			return nil, err
		}
		c.frac, err = strconv.ParseFloat(f[2], 64)
		if err != nil || c.frac < 0 {
			return nil, bad("bad load fraction %q", f[2])
		}
	case "catalog":
		if err = argc(4); err != nil {
			return nil, err
		}
		c.act = ActCatalog
		if c.a, err = target(f[1], false); err != nil {
			return nil, err
		}
		if f[2] != "add" && f[2] != "rm" {
			return nil, bad("want 'catalog X add O' or 'catalog X rm O'")
		}
		c.op, c.name = f[2], f[3]
	case "spike":
		if err = argc(4); err != nil {
			return nil, err
		}
		if f[2] != "over" {
			return nil, bad("want 'spike N over W'")
		}
		c.kind = cmdSpike
		c.spikeN, err = strconv.Atoi(f[1])
		if err != nil || c.spikeN < 1 {
			return nil, bad("bad spike count %q", f[1])
		}
		c.spikeOver, err = parseDur(f[3])
		if err != nil {
			return nil, bad("%v", err)
		}
	default:
		return nil, bad("unknown verb %q", f[0])
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
