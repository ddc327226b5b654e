package live

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/rng"
)

// FaultInjector impairs live traffic per directed peer pair — the live
// mirror of netsim's loss/churn knobs. Rules apply at two hooks: the
// Runtime's in-process delivery path and the TCP transport's outbound
// path (inbound traffic is never re-impaired; the sender's side already
// decided). Install one with Runtime.SetFaultInjector, or let the
// /faults diagnostics endpoint create it on demand.
//
// AnyNode (env.NoNode) acts as a wildcard on either side; the most
// specific rule wins: (from,to), then (from,*), then (*,to), then (*,*).
type FaultInjector struct {
	mu    sync.Mutex
	rules env.PairRules[FaultRule] // guarded by mu
	r     *rng.Rand                // guarded by mu

	dropped    atomic.Uint64
	delayed    atomic.Uint64
	duplicated atomic.Uint64
}

// AnyNode is the wildcard for either side of a fault rule.
const AnyNode = env.NoNode

// FaultRule describes the impairments for one directed peer pair.
// Sever blackholes the pair entirely; otherwise Drop and Dup are
// independent probabilities and Delay is added before delivery.
type FaultRule struct {
	Drop  float64       `json:"drop,omitempty"`
	Dup   float64       `json:"dup,omitempty"`
	Delay time.Duration `json:"delay,omitempty"`
	Sever bool          `json:"sever,omitempty"`
}

// NewFaultInjector creates an injector drawing its probability rolls
// from r (callers derive it from the runtime's rng stream, keeping all
// live randomness on injected streams).
func NewFaultInjector(r *rng.Rand) *FaultInjector {
	return &FaultInjector{rules: env.PairRules[FaultRule]{}, r: r}
}

// Set installs the rule for from→to (either side may be AnyNode). A
// zero rule removes the entry.
func (f *FaultInjector) Set(from, to env.NodeID, rule FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.Set(from, to, rule)
}

// Sever blackholes both directions between a and b (use AnyNode to cut
// a peer off from everyone).
func (f *FaultInjector) Sever(a, b env.NodeID) {
	f.Set(a, b, FaultRule{Sever: true})
	f.Set(b, a, FaultRule{Sever: true})
}

// Heal removes the rule for from→to.
func (f *FaultInjector) Heal(from, to env.NodeID) {
	f.Set(from, to, FaultRule{})
}

// Reset removes every rule.
func (f *FaultInjector) Reset() {
	f.Clear()
}

// Clear atomically removes every rule and returns how many it healed,
// so a finished chaos block can restore the fleet in one call and
// report what it undid.
func (f *FaultInjector) Clear() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.rules)
	f.rules = env.PairRules[FaultRule]{}
	return n
}

// FaultRuleEntry is one installed rule, as listed by Rules and the
// /faults endpoint.
type FaultRuleEntry struct {
	From env.NodeID `json:"from"`
	To   env.NodeID `json:"to"`
	Rule FaultRule  `json:"rule"`
}

// Rules returns the installed rules sorted by (from, to).
func (f *FaultInjector) Rules() []FaultRuleEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]FaultRuleEntry, 0, len(f.rules))
	for k, r := range f.rules {
		out = append(out, FaultRuleEntry{From: k.From, To: k.To, Rule: r})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// FaultStats counts impairments the injector has applied.
type FaultStats struct {
	Dropped    uint64 `json:"dropped"`
	Delayed    uint64 `json:"delayed"`
	Duplicated uint64 `json:"duplicated"`
}

// Stats snapshots the impairment counters.
func (f *FaultInjector) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:    f.dropped.Load(),
		Delayed:    f.delayed.Load(),
		Duplicated: f.duplicated.Load(),
	}
}

// faultDecision is the outcome for one message.
type faultDecision struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// decide rolls the installed rule for one from→to message. A nil
// injector imposes nothing.
func (f *FaultInjector) decide(from, to env.NodeID) faultDecision {
	if f == nil {
		return faultDecision{}
	}
	f.mu.Lock()
	rule, ok := f.rules.Lookup(from, to)
	if !ok {
		f.mu.Unlock()
		return faultDecision{}
	}
	var d faultDecision
	if rule.Sever || (rule.Drop > 0 && f.r.Bool(rule.Drop)) {
		d.drop = true
	} else {
		d.dup = rule.Dup > 0 && f.r.Bool(rule.Dup)
		d.delay = rule.Delay
	}
	f.mu.Unlock()
	if d.drop {
		f.dropped.Add(1)
	}
	if d.dup {
		f.duplicated.Add(1)
	}
	if d.delay > 0 {
		f.delayed.Add(1)
	}
	return d
}
