package live

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestChaosFailoverAcrossTransports runs the real protocol stack across
// two live runtimes joined by TCP, then severs the RM's link mid-session
// with the fault injectors on both sides. The backup on the surviving
// runtime must detect the missed heartbeats and take over within the
// deadline — the live analogue of the simulated RM-crash experiments.
func TestChaosFailoverAcrossTransports(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HeartbeatPeriod = 30 * sim.Millisecond
	cfg.HeartbeatMisses = 3
	cfg.ProfilePeriod = 50 * sim.Millisecond
	cfg.BackupSyncPeriod = 60 * sim.Millisecond
	cfg.GossipPeriod = 0
	cfg.AdaptPeriod = 0

	eventsA := &core.Events{}
	eventsB := &core.Events{}
	rtA := NewRuntime(60)
	rtB := NewRuntime(61)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	tcfg := fastTransport()
	trA := NewTCPTransportOpts(rtA, tcfg, nil, nil)
	trB := NewTCPTransportOpts(rtB, tcfg, nil, nil)
	defer trA.Close()
	defer trB.Close()
	addrA, err := trA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trA.Register(1, addrB)
	trA.Register(2, addrB)
	trB.Register(0, addrA)

	mk := func() proto.PeerInfo {
		return proto.PeerInfo{SpeedWU: 50, BandwidthKbps: 10000, UptimeSec: 7200}
	}
	// The founder (and so the RM) lives on runtime A; both candidate
	// backups live on runtime B and bootstrap through TCP.
	founder := core.New(cfg, mk(), env.NoNode, eventsA)
	p1 := core.New(cfg, mk(), 0, eventsB)
	p2 := core.New(cfg, mk(), 0, eventsB)
	rtA.AddNodeWithID(0, founder)
	rtB.AddNodeWithID(1, p1)
	rtB.AddNodeWithID(2, p2)

	peersB := []*core.Peer{p1, p2}
	waitFor(t, 10*time.Second, func() bool {
		joined := 0
		ok := false
		rtA.Call(0, func() { ok = founder.Joined() })
		if ok {
			joined++
		}
		for i, p := range peersB {
			p := p
			ok := false
			rtB.Call(env.NodeID(i+1), func() { ok = p.Joined() })
			if ok {
				joined++
			}
		}
		return joined == 3
	})

	// Let the backup get at least one state sync, then cut every link
	// touching the RM — on both runtimes, so neither direction survives.
	time.Sleep(250 * time.Millisecond)
	rtA.EnsureFaultInjector().Sever(0, AnyNode)
	rtB.EnsureFaultInjector().Sever(0, AnyNode)

	start := time.Now()
	waitFor(t, 10*time.Second, func() bool {
		for i, p := range peersB {
			p := p
			is := false
			rtB.Call(env.NodeID(i+1), func() { is = p.IsRM() })
			if is {
				return true
			}
		}
		return false
	})
	t.Logf("takeover after %v", time.Since(start).Truncate(time.Millisecond))
	if got := eventsB.Snapshot().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if drops := trA.Stats().Drops["fault"] + trB.Stats().Drops["fault"]; drops == 0 {
		t.Fatal("severing dropped no transport traffic; the link was not exercised")
	}
}

// TestChaosBlackholedPeerSendNonBlocking pins the tentpole guarantee:
// with a dial target that never completes, an actor's Send must return
// immediately (messages shed as queue_full once the supervisor queue
// fills) and the drop-reason counters must be visible in /metrics.
func TestChaosBlackholedPeerSendNonBlocking(t *testing.T) {
	rt := NewRuntime(62)
	defer rt.Shutdown()
	reg := metrics.NewRegistry()
	unblock := make(chan struct{})
	cfg := fastTransport()
	cfg.QueueDepth = 8
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		<-unblock // a blackhole: the dial never completes while the test runs
		return nil, errors.New("blackholed")
	}
	tr := NewTCPTransportOpts(rt, cfg, reg, nil)
	defer tr.Close()
	defer close(unblock)           // runs before tr.Close: frees the parked dialer
	tr.Register(99, "192.0.2.1:9") // TEST-NET; the dial hook intercepts anyway

	a := &collector{}
	id := rt.AddNode(a)
	const sends = 200
	start := time.Now()
	rt.Call(id, func() {
		for i := 0; i < sends; i++ {
			a.ctx.Send(99, proto.TaskReject{Reason: "into the void"})
		}
	})
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("%d sends to a blackholed peer took %v; Send must not block on the socket", sends, elapsed)
	}
	st := tr.Stats()
	if st.Drops["queue_full"] == 0 {
		t.Fatalf("no queue_full drops after %d sends into a %d-deep queue: %+v", sends, cfg.QueueDepth, st)
	}

	ds, err := rt.ServeDiagnostics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `live_transport_dropped_total{reason="queue_full"}`) {
		t.Fatalf("/metrics missing drop-reason counter:\n%s", body)
	}
}

// TestChaosSeveredLinkHeals severs a TCP pair via the injector, confirms
// loss, heals it, and confirms delivery resumes on the same connection.
func TestChaosSeveredLinkHeals(t *testing.T) {
	rtA := NewRuntime(63)
	rtB := NewRuntime(64)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	trA := NewTCPTransportOpts(rtA, fastTransport(), nil, nil)
	trB := NewTCPTransport(rtB)
	defer trA.Close()
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

	rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "up"}) })
	waitFor(t, 2*time.Second, func() bool { return b.count() == 1 })

	rtA.EnsureFaultInjector().Sever(0, 1)
	rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "cut"}) })
	waitFor(t, 2*time.Second, func() bool { return trA.Stats().Drops["fault"] >= 1 })
	if b.count() != 1 {
		t.Fatal("severed link delivered")
	}

	rtA.FaultInjector().Heal(0, 1)
	rtA.FaultInjector().Heal(1, 0)
	waitFor(t, 2*time.Second, func() bool {
		rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "healed"}) })
		return b.count() >= 2
	})
}
