package live

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
)

func TestFaultInjectorDropDupDelayStats(t *testing.T) {
	fi := NewFaultInjector(rng.New(2))
	fi.Set(1, 2, FaultRule{Drop: 1})
	fi.Set(3, 4, FaultRule{Dup: 1, Delay: time.Millisecond})
	for i := 0; i < 10; i++ {
		if d := fi.decide(1, 2); !d.drop {
			t.Fatal("Drop=1 must always drop")
		}
		d := fi.decide(3, 4)
		if d.drop || !d.dup || d.delay != time.Millisecond {
			t.Fatalf("Dup=1+Delay rule gave %+v", d)
		}
	}
	st := fi.Stats()
	if st.Dropped != 10 || st.Duplicated != 10 || st.Delayed != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultInjectorNilSafe(t *testing.T) {
	var fi *FaultInjector
	if d := fi.decide(1, 2); d.drop || d.dup || d.delay != 0 {
		t.Fatalf("nil injector impaired traffic: %+v", d)
	}
	if fi.Rules() != nil {
		t.Fatal("nil injector has rules")
	}
	if fi.Stats() != (FaultStats{}) {
		t.Fatal("nil injector has stats")
	}
}

func TestRuntimeFaultInjectorLocalDelivery(t *testing.T) {
	rt := NewRuntime(31)
	defer rt.Shutdown()
	a := &collector{}
	b := &collector{}
	ida := rt.AddNode(a)
	idb := rt.AddNode(b)

	rt.EnsureFaultInjector().Sever(ida, idb)
	rt.Call(ida, func() { a.ctx.Send(idb, note{S: "lost"}) })
	time.Sleep(50 * time.Millisecond)
	if b.count() != 0 {
		t.Fatal("severed in-process delivery got through")
	}

	rt.FaultInjector().Heal(ida, idb)
	rt.FaultInjector().Heal(idb, ida)
	rt.Call(ida, func() { a.ctx.Send(idb, note{S: "ok"}) })
	waitFor(t, time.Second, func() bool { return b.count() == 1 })

	// Duplication: exactly two copies per send.
	rt.FaultInjector().Set(ida, idb, FaultRule{Dup: 1})
	rt.Call(ida, func() { a.ctx.Send(idb, note{S: "twice"}) })
	waitFor(t, time.Second, func() bool { return b.count() == 3 })

	// Delay: delivery happens, later.
	rt.FaultInjector().Set(ida, idb, FaultRule{Delay: 30 * time.Millisecond})
	rt.Call(ida, func() { a.ctx.Send(idb, note{S: "late"}) })
	if b.count() != 3 {
		t.Fatal("delayed message arrived immediately")
	}
	waitFor(t, time.Second, func() bool { return b.count() == 4 })
}

func TestFaultsEndpoint(t *testing.T) {
	rt := NewRuntime(32)
	defer rt.Shutdown()
	ds, err := rt.ServeDiagnostics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr() + "/faults"

	do := func(method, query string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Empty to start.
	if code, body := do(http.MethodGet, ""); code != 200 {
		t.Fatalf("GET = %d %s", code, body)
	}

	// Install a rule, read it back.
	if code, body := do(http.MethodPost, "?from=1&to=2&drop=0.5&delay=10ms"); code != 200 {
		t.Fatalf("POST = %d %s", code, body)
	}
	_, body := do(http.MethodGet, "")
	var doc struct {
		Rules []FaultRuleEntry `json:"rules"`
		Stats FaultStats       `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("GET body %q: %v", body, err)
	}
	if len(doc.Rules) != 1 || doc.Rules[0].From != 1 || doc.Rules[0].To != 2 ||
		doc.Rules[0].Rule.Drop != 0.5 || doc.Rules[0].Rule.Delay != 10*time.Millisecond {
		t.Fatalf("rules = %+v", doc.Rules)
	}

	// Wildcard sever, then heal one pair, then reset everything.
	if code, _ := do(http.MethodPost, "?from=*&to=3&sever=true"); code != 200 {
		t.Fatal("POST wildcard failed")
	}
	if code, _ := do(http.MethodDelete, "?from=1&to=2"); code != 200 {
		t.Fatal("DELETE pair failed")
	}
	_, body = do(http.MethodGet, "")
	doc.Rules = nil
	json.Unmarshal([]byte(body), &doc)
	if len(doc.Rules) != 1 || doc.Rules[0].To != 3 {
		t.Fatalf("after heal rules = %+v", doc.Rules)
	}
	code, body := do(http.MethodDelete, "")
	if code != 200 {
		t.Fatal("DELETE all failed")
	}
	var clearRes struct {
		Status  string `json:"status"`
		Cleared int    `json:"cleared"`
	}
	if err := json.Unmarshal([]byte(body), &clearRes); err != nil {
		t.Fatalf("DELETE all body %q: %v", body, err)
	}
	if clearRes.Status != "ok" || clearRes.Cleared != 1 {
		t.Fatalf("DELETE all = %+v, want status ok cleared 1", clearRes)
	}
	_, body = do(http.MethodGet, "")
	doc.Rules = nil
	json.Unmarshal([]byte(body), &doc)
	if len(doc.Rules) != 0 {
		t.Fatalf("after reset rules = %+v", doc.Rules)
	}

	// Malformed requests are rejected.
	if code, _ := do(http.MethodPost, "?drop=1.5"); code != http.StatusBadRequest {
		t.Fatal("out-of-range probability accepted")
	}
	if code, _ := do(http.MethodPost, "?from=xyz"); code != http.StatusBadRequest {
		t.Fatal("bad node id accepted")
	}
	if code, _ := do(http.MethodPost, "?delay=fast"); code != http.StatusBadRequest {
		t.Fatal("bad delay accepted")
	}
}

func TestFaultInjectorClear(t *testing.T) {
	var nilFI *FaultInjector
	if n := nilFI.Clear(); n != 0 {
		t.Fatalf("nil Clear = %d", n)
	}
	fi := NewFaultInjector(rng.New(5))
	if n := fi.Clear(); n != 0 {
		t.Fatalf("empty Clear = %d", n)
	}
	fi.Set(1, 2, FaultRule{Drop: 1})
	fi.Set(AnyNode, 3, FaultRule{Sever: true})
	fi.Sever(4, 5) // installs both directions
	if n := fi.Clear(); n != 4 {
		t.Fatalf("Clear = %d, want 4", n)
	}
	if rules := fi.Rules(); len(rules) != 0 {
		t.Fatalf("rules after Clear = %+v", rules)
	}
	if d := fi.decide(1, 2); d.drop || d.dup || d.delay != 0 {
		t.Fatalf("decide after Clear impaired traffic: %+v", d)
	}
	// The injector stays usable: new rules after Clear take effect.
	fi.Set(1, 2, FaultRule{Drop: 1})
	if d := fi.decide(1, 2); !d.drop {
		t.Fatal("rule installed after Clear was ignored")
	}
}

// TestFaultRulePrecedenceInProcessDelivery pins the specificity order
// (from,to) > (from,*) > (*,to) > (*,*) on the Runtime's in-process
// delivery hook: a blanket sever must not shadow a more specific
// delay-only rule, and healing the specific rule falls back to the
// blanket one.
func TestFaultRulePrecedenceInProcessDelivery(t *testing.T) {
	rt := NewRuntime(33)
	defer rt.Shutdown()
	a := &collector{}
	b := &collector{}
	ida := rt.AddNode(a)
	idb := rt.AddNode(b)
	fi := rt.EnsureFaultInjector()

	send := func() { rt.Call(ida, func() { a.ctx.Send(idb, note{S: "x"}) }) }

	fi.Set(AnyNode, AnyNode, FaultRule{Sever: true})
	send()
	waitFor(t, time.Second, func() bool { return fi.Stats().Dropped == 1 })
	if b.count() != 0 {
		t.Fatal("(*,*) sever let an in-process message through")
	}

	// (*,to) delay beats the blanket sever.
	fi.Set(AnyNode, idb, FaultRule{Delay: time.Millisecond})
	send()
	waitFor(t, time.Second, func() bool { return b.count() == 1 })

	// (from,*) sever beats (*,to).
	fi.Set(ida, AnyNode, FaultRule{Sever: true})
	send()
	waitFor(t, time.Second, func() bool { return fi.Stats().Dropped == 2 })
	if b.count() != 1 {
		t.Fatal("(from,*) sever did not shadow (*,to)")
	}

	// (from,to) beats everything.
	fi.Set(ida, idb, FaultRule{Delay: time.Millisecond})
	send()
	waitFor(t, time.Second, func() bool { return b.count() == 2 })

	// Healing the exact pair falls back to (from,*) sever.
	fi.Heal(ida, idb)
	send()
	waitFor(t, time.Second, func() bool { return fi.Stats().Dropped == 3 })
	if b.count() != 2 {
		t.Fatal("heal of the exact rule did not fall back to (from,*)")
	}
}

// TestFaultRulePrecedenceTCPOutbound pins the same specificity order on
// the TCP transport's outbound hook (sender-side impairment of real
// socket traffic between two runtimes).
func TestFaultRulePrecedenceTCPOutbound(t *testing.T) {
	rtA := NewRuntime(34)
	rtB := NewRuntime(35)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	trA := NewTCPTransport(rtA)
	defer trA.Close()
	trB := NewTCPTransport(rtB)
	defer trB.Close()
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := &collector{}
	b := &collector{}
	rtA.AddNodeWithID(0, a)
	rtB.AddNodeWithID(1, b)
	trA.Register(1, addrB)
	fi := rtA.EnsureFaultInjector()

	send := func() { rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "x"}) }) }

	// Warm the path unimpaired first so drops below are unambiguous.
	send()
	waitFor(t, 2*time.Second, func() bool { return b.count() == 1 })

	fi.Set(AnyNode, AnyNode, FaultRule{Sever: true})
	send()
	waitFor(t, time.Second, func() bool { return fi.Stats().Dropped == 1 })

	// (*,to) delay beats the blanket sever.
	fi.Set(AnyNode, 1, FaultRule{Delay: time.Millisecond})
	send()
	waitFor(t, 2*time.Second, func() bool { return b.count() == 2 })

	// (from,*) sever beats (*,to).
	fi.Set(0, AnyNode, FaultRule{Sever: true})
	send()
	waitFor(t, time.Second, func() bool { return fi.Stats().Dropped == 2 })

	// (from,to) beats everything.
	fi.Set(0, 1, FaultRule{Delay: time.Millisecond})
	send()
	waitFor(t, 2*time.Second, func() bool { return b.count() == 3 })

	// Clear heals the whole matrix in one call.
	if n := fi.Clear(); n != 4 {
		t.Fatalf("Clear = %d, want 4", n)
	}
	send()
	waitFor(t, 2*time.Second, func() bool { return b.count() == 4 })
	if st := trA.Stats(); st.Drops[DropFault.String()] != 2 {
		t.Fatalf("transport fault-drop count = %d, want 2", st.Drops[DropFault.String()])
	}
}
