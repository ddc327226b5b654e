package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSessionLifecycle(t *testing.T) {
	tr := New()
	tr.BeginSession(100, "t1", 3, 0, A("object", "movie"))
	tr.BeginPhase(110, "t1", "compose", 0, 0)
	tr.EndPhase(120, "t1", "compose", 0, 0)
	tr.BeginPhase(120, "t1", "stream", 0, 0)
	tr.EndSession(500, "t1", 2, 0, "completed")

	if got := tr.SessionsBegun(); got != 1 {
		t.Fatalf("SessionsBegun = %d", got)
	}
	if got := tr.OpenSessions(); got != 0 {
		t.Fatalf("OpenSessions = %d", got)
	}
	evs := tr.Snapshot()
	// begin, compose b, compose e, stream b, stream e (auto-closed), end.
	if len(evs) != 6 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	last := evs[len(evs)-1]
	if last.Phase != "e" || last.Args["outcome"] != "completed" {
		t.Fatalf("last event = %+v", last)
	}
	// The auto-closed stream phase precedes the session end.
	if evs[4].Name != "stream" || evs[4].Phase != "e" {
		t.Fatalf("auto-close event = %+v", evs[4])
	}
	// All events of one task share the async span id.
	for _, e := range evs {
		if e.ID != evs[0].ID {
			t.Fatalf("span id mismatch: %+v vs %+v", e, evs[0])
		}
	}
}

func TestIdempotentEnds(t *testing.T) {
	tr := New()
	tr.BeginSession(1, "t1", 0, 0)
	tr.BeginSession(2, "t1", 0, 0) // reopen is a no-op
	tr.EndSession(3, "t1", 0, 0, "rejected")
	tr.EndSession(4, "t1", 0, 0, "timeout") // second end ignored
	tr.EndSession(5, "t2", 0, 0, "x")       // unknown task ignored
	if got := tr.SessionsBegun(); got != 1 {
		t.Fatalf("SessionsBegun = %d", got)
	}
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[1].Args["outcome"] != "rejected" {
		t.Fatalf("first outcome must win: %+v", evs[1])
	}
	// A session may begin again after ending (retried task ID).
	tr.BeginSession(6, "t1", 0, 0)
	if got := tr.SessionsBegun(); got != 2 {
		t.Fatalf("SessionsBegun after reopen = %d", got)
	}
}

func TestPhaseNotReopened(t *testing.T) {
	tr := New()
	tr.BeginSession(1, "t1", 0, 0)
	tr.BeginPhase(2, "t1", "stream", 0, 0)
	tr.BeginPhase(3, "t1", "stream", 0, 0) // already open: skipped
	tr.EndPhase(4, "t1", "stream", 0, 0)
	tr.EndPhase(5, "t1", "stream", 0, 0) // already closed: skipped
	if got := tr.Len(); got != 3 {
		t.Fatalf("events = %d", got)
	}
}

func TestWriteJSONLValidPerLine(t *testing.T) {
	tr := New()
	tr.BeginSession(1, "t1", 1, 0)
	tr.Complete(2, 10, "t1", "allocate", 0, 0, A("goals", 2))
	tr.Instant(3, "t1", "redirect", 0, 0, A("target_rm", 7))
	tr.Instant(4, "", "failover", 5, 1)
	tr.EndSession(9, "t1", 1, 0, "completed")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", lines, err, sc.Text())
		}
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("line %d missing %q: %s", lines, k, sc.Text())
			}
		}
	}
	if lines != tr.Len() {
		t.Fatalf("lines = %d, events = %d", lines, tr.Len())
	}
	// The instant without a task carries no span id.
	if strings.Contains(tr.Snapshot()[3].ID, "0x") {
		t.Fatal("taskless instant must not get a span id")
	}
}

func TestReadJSONLRoundTripAndLineErrors(t *testing.T) {
	tr := New()
	tr.BeginSession(1, "t1", 1, 0)
	tr.Instant(3, "t1", "redirect", 0, 0, A("target_rm", 7))
	tr.EndSession(9, "t1", 1, 0, "completed")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("read %d events, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Phase != want[i].Phase || got[i].TS != want[i].TS || got[i].ID != want[i].ID {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	buf.WriteString("\n{not json\n")
	if _, err := ReadJSONL(&buf); err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Fatalf("err = %v, want one naming line 5", err)
	}
}

func TestBoundedBuffer(t *testing.T) {
	tr := New()
	tr.SetMaxEvents(3)
	for i := 0; i < 10; i++ {
		tr.Instant(int64(i), "", "tick", 0, 0)
	}
	if tr.Len() != 3 || tr.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestDeterministicSpanIDs(t *testing.T) {
	a, b := New(), New()
	a.SetSeed(42)
	b.SetSeed(42)
	if a.SpanFor("t3.1") != b.SpanFor("t3.1") {
		t.Fatal("equal seeds must derive equal span ids")
	}
	if a.SpanFor("t3.1") != DeriveSpanID(42, "t3.1") {
		t.Fatal("SpanFor must match the exported derivation")
	}
	if a.SpanFor("t3.1") == a.SpanFor("t3.2") {
		t.Fatal("distinct tasks must get distinct span ids")
	}
	c := New()
	c.SetSeed(43)
	if c.SpanFor("t3.1") == a.SpanFor("t3.1") {
		t.Fatal("distinct seeds must derive distinct span ids")
	}
	// The id is stable across the session lifecycle.
	a.BeginSession(1, "t3.1", 0, 0)
	if got := a.Snapshot()[0].ID; got != spanID(DeriveSpanID(42, "t3.1")) {
		t.Fatalf("session event id = %s", got)
	}
	if PhaseRef(a.SpanFor("t3.1"), "submit") == a.SpanFor("t3.1") {
		t.Fatal("phase ref must differ from the span id")
	}
}

func TestAdopt(t *testing.T) {
	tr := New()
	tr.SetSeed(7)
	parent := PhaseRef(12345, "submit")
	tr.Adopt(10, "tX", 12345, parent, 2, 1)
	if tr.SpanFor("tX") != 12345 {
		t.Fatalf("adopted span id = %d", tr.SpanFor("tX"))
	}
	evs := tr.Snapshot()
	if len(evs) != 1 || evs[0].Name != "ctx" || evs[0].Args["parent"] != spanID(parent) {
		t.Fatalf("adoption instant = %+v", evs)
	}
	// Re-adoption with a different id is a silent no-op: first wins.
	tr.Adopt(11, "tX", 999, parent, 2, 1)
	if tr.SpanFor("tX") != 12345 || tr.Len() != 1 {
		t.Fatal("re-adoption must not rebind or record")
	}
	// Adopting a task already seen locally keeps the local binding.
	local := tr.SpanFor("tY")
	tr.Adopt(12, "tY", 555, 0, 0, 0)
	if tr.SpanFor("tY") != local {
		t.Fatal("local binding must win over late adoption")
	}
	// Zero span is the untraced sentinel.
	tr.Adopt(13, "tZ", 0, parent, 0, 0)
	if _, ok := tr.sessions["tZ"]; ok {
		t.Fatal("zero span must not bind")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.BeginSession(1, "t", 0, 0)
	tr.EndSession(2, "t", 0, 0, "x")
	tr.BeginPhase(1, "t", "p", 0, 0)
	tr.EndPhase(2, "t", "p", 0, 0)
	tr.Instant(1, "t", "i", 0, 0)
	tr.Complete(1, 2, "t", "c", 0, 0)
	tr.SetMaxEvents(10)
	tr.SetSeed(1)
	tr.Adopt(1, "t", 2, 3, 0, 0)
	if tr.SpanFor("t") != 0 {
		t.Fatal("nil tracer SpanFor must return 0")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.SessionsBegun() != 0 || tr.OpenSessions() != 0 {
		t.Fatal("nil tracer reported state")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil tracer wrote output")
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			task := string(rune('a' + g))
			for i := 0; i < 100; i++ {
				tr.BeginSession(int64(i), task, g, 0)
				tr.Instant(int64(i), task, "tick", g, 0)
				tr.EndSession(int64(i), task, g, 0, "completed")
			}
		}(g)
	}
	wg.Wait()
	if tr.SessionsBegun() != 800 {
		t.Fatalf("SessionsBegun = %d", tr.SessionsBegun())
	}
}

// BenchmarkNilTracer measures the disabled-path cost of one guarded call
// site: a nil check plus an immediately-returning method.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Instant(int64(i), "t", "tick", 0, 0)
		}
	}
}
