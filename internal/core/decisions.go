package core

import (
	"encoding/json"
	"io"
	"sync"
)

// This file is the RM decision audit: every admit/reject/redirect/
// preempt/repair/migrate/failover choice the resource manager makes is
// recorded as a structured Decision — action, reason, utility delta,
// and the candidates considered but rejected — so the adaptation loop
// of the paper is explainable after the fact. Events.decide records a
// decision into this ring (served by /decisions) and as a "decision"
// instant inside the task's span, and emits it through the Events funnel
// as a per-action count together with the fact its action stands for —
// an admission, redirect, preemption, migration or failover is counted
// there and nowhere else.

// Decision actions recorded by the resource manager.
const (
	DecisionAdmit    = "admit"
	DecisionReject   = "reject"
	DecisionRedirect = "redirect"
	DecisionPreempt  = "preempt"
	DecisionRepair   = "repair"
	DecisionMigrate  = "migrate"
	DecisionFailover = "failover"
)

// Decision is one audited RM choice.
type Decision struct {
	TSMicros int64  `json:"ts"`
	Task     string `json:"task,omitempty"`
	Node     int    `json:"node"`
	Domain   int    `json:"domain"`
	Action   string `json:"action"`
	Reason   string `json:"reason,omitempty"`
	// UtilityDelta is the change of the allocator's objective caused by
	// the decision (Jain's fairness index of the projected load
	// distribution for admissions; 0 when not applicable).
	UtilityDelta float64 `json:"utility_delta,omitempty"`
	// Candidates lists alternatives considered but not chosen — goal
	// formats an allocation search evaluated, redirect targets, or
	// preemption victims probed.
	Candidates []string `json:"candidates,omitempty"`
}

// DefaultDecisionCap bounds the in-memory decision ring; beyond it the
// oldest decisions are overwritten (the total count keeps climbing).
const DefaultDecisionCap = 4096

// DecisionLog is a bounded ring of Decisions shared by every peer of a
// run, like Events. The zero value is not usable; call NewDecisionLog.
// A nil *DecisionLog ignores all operations. Safe for concurrent use.
type DecisionLog struct {
	mu    sync.Mutex
	buf   []Decision // guarded by mu; ring once full
	next  int        // guarded by mu; write cursor
	total uint64     // guarded by mu; decisions ever recorded
	cap   int
}

// NewDecisionLog creates a ring holding the last n decisions
// (DefaultDecisionCap if n <= 0).
func NewDecisionLog(n int) *DecisionLog {
	if n <= 0 {
		n = DefaultDecisionCap
	}
	return &DecisionLog{buf: make([]Decision, 0, n), cap: n}
}

// Add records one decision.
func (l *DecisionLog) Add(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, d)
		l.next = len(l.buf) % l.cap
		return
	}
	l.buf[l.next] = d
	l.next = (l.next + 1) % l.cap
}

// Total reports decisions ever recorded, including overwritten ones.
func (l *DecisionLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained decisions oldest-first.
func (l *DecisionLog) Snapshot() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < l.cap {
		return append([]Decision(nil), l.buf...)
	}
	out := make([]Decision, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// WriteJSON writes the snapshot as one indented JSON document — the
// payload of the /decisions endpoint.
func (l *DecisionLog) WriteJSON(w io.Writer) error {
	if l == nil {
		_, err := w.Write([]byte("{\"total\":0,\"decisions\":[]}\n"))
		return err
	}
	snap := l.Snapshot()
	if snap == nil {
		snap = []Decision{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Total     uint64     `json:"total"`
		Decisions []Decision `json:"decisions"`
	}{l.Total(), snap})
}
