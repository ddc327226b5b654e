package replay

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Trace comparison: a faithful replay re-emits the same trace the
// recorded run produced. Two run-dependent artifacts are normalized away
// before comparing:
//
//   - Async span IDs are assigned by the tracer in global first-sight
//     order, which depends on cross-node interleaving; they are remapped
//     to the task name they identify (the per-task event content is what
//     the determinism contract covers).
//   - Transport instants (pid/tid -1) come from connection supervisor
//     goroutines outside any node loop and are excluded; the replayed
//     run has no real transport.
//
// Ordering is compared per node (per tid): each node's event loop emits
// its trace records in a deterministic order, while the global
// interleaving across nodes is not part of the contract.

// TraceDiff describes the first per-node trace mismatch.
type TraceDiff struct {
	TID   int    `json:"tid"`   // node whose trace diverged
	Index int    `json:"index"` // position in that node's event sequence
	Got   string `json:"got"`   // replayed event (normalized JSON), "" if missing
	Want  string `json:"want"`  // recorded event (normalized JSON), "" if missing
}

func (d *TraceDiff) String() string {
	return fmt.Sprintf("trace divergence at node %d, event %d:\n  recorded: %s\n  replayed: %s",
		d.TID, d.Index, orMissing(d.Want), orMissing(d.Got))
}

func orMissing(s string) string {
	if s == "" {
		return "(missing)"
	}
	return s
}

// idToTask maps each async span ID to the task name it identifies, using
// the events that carry both (session begins always do).
func idToTask(events []trace.Event) map[string]string {
	m := make(map[string]string)
	for _, e := range events {
		if e.ID == "" || e.Args == nil {
			continue
		}
		if task, ok := e.Args["task"].(string); ok && task != "" {
			if _, seen := m[e.ID]; !seen {
				m[e.ID] = task
			}
		}
	}
	return m
}

// normalize converts one trace event to a canonical JSON string with the
// span ID replaced by its task identity. The JSON round trip flattens
// representation differences (int vs float64 Args values) between an
// in-memory snapshot and a file read back from disk; encoding/json
// writes map keys sorted, so the output is canonical.
func normalize(e trace.Event, tasks map[string]string) (string, error) {
	if task, ok := tasks[e.ID]; ok {
		e.ID = "task:" + task
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	var generic map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return "", err
	}
	canon, err := json.Marshal(generic)
	if err != nil {
		return "", err
	}
	return string(canon), nil
}

// byTID groups the comparable events (node-loop events only) per tid as
// normalized strings, preserving each node's emission order.
func byTID(events []trace.Event) (map[int][]string, error) {
	tasks := idToTask(events)
	out := make(map[int][]string)
	for _, e := range events {
		if e.TID < 0 || e.Cat == "transport" {
			continue
		}
		s, err := normalize(e, tasks)
		if err != nil {
			return nil, err
		}
		out[e.TID] = append(out[e.TID], s)
	}
	return out, nil
}

// CompareTraces compares a recorded trace against a replayed one and
// returns the first per-node mismatch, or nil when they match.
func CompareTraces(recorded, replayed []trace.Event) (*TraceDiff, error) {
	want, err := byTID(recorded)
	if err != nil {
		return nil, fmt.Errorf("replay: normalizing recorded trace: %w", err)
	}
	got, err := byTID(replayed)
	if err != nil {
		return nil, fmt.Errorf("replay: normalizing replayed trace: %w", err)
	}
	tids := make([]int, 0, len(want)+len(got))
	seen := make(map[int]bool)
	for tid := range want { //lint:maporder commutative — tids are sorted below before comparison
		tids = append(tids, tid)
		seen[tid] = true
	}
	for tid := range got { //lint:maporder commutative — tids are sorted below before comparison
		if !seen[tid] {
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	for _, tid := range tids {
		w, g := want[tid], got[tid]
		n := len(w)
		if len(g) > n {
			n = len(g)
		}
		for i := 0; i < n; i++ {
			var ws, gs string
			if i < len(w) {
				ws = w[i]
			}
			if i < len(g) {
				gs = g[i]
			}
			if ws != gs {
				return &TraceDiff{TID: tid, Index: i, Got: gs, Want: ws}, nil
			}
		}
	}
	return nil, nil
}
