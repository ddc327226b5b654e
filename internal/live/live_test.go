package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/sim"
)

// collector is a trivial actor recording everything it receives.
type collector struct {
	mu      sync.Mutex
	ctx     env.Context
	msgs    []env.Message
	stopped atomic.Bool
}

func (c *collector) Init(ctx env.Context) { c.ctx = ctx }
func (c *collector) Stop()                { c.stopped.Store(true) }
func (c *collector) Receive(from env.NodeID, m env.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}
func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// note is a payload outside the wire codec's message set: it travels
// between in-process nodes only (the TCP transport drops it as
// encode_error).
type note struct{ S string }

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestInProcessDelivery(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	a := &collector{}
	b := &collector{}
	ida := rt.AddNode(a)
	idb := rt.AddNode(b)
	rt.Call(ida, func() { a.ctx.Send(idb, note{S: "hello"}) })
	waitFor(t, time.Second, func() bool { return b.count() == 1 })
	b.mu.Lock()
	got := b.msgs[0].(note).S
	b.mu.Unlock()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestTimers(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	a := &collector{}
	id := rt.AddNode(a)
	var fired atomic.Int32
	rt.Call(id, func() {
		a.ctx.After(5*sim.Millisecond, func() { fired.Add(1) })
		cancel := a.ctx.After(5*sim.Millisecond, func() { fired.Add(100) })
		cancel()
	})
	waitFor(t, time.Second, func() bool { return fired.Load() > 0 })
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("fired = %d, want 1 (cancelled timer must not fire)", fired.Load())
	}
}

func TestStopCallsActorStop(t *testing.T) {
	rt := NewRuntime(3)
	a := &collector{}
	id := rt.AddNode(a)
	rt.Stop(id)
	if !a.stopped.Load() {
		t.Fatal("Stop hook did not run")
	}
	// Idempotent.
	rt.Stop(id)
}

func TestSendToUnknownDrops(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	a := &collector{}
	id := rt.AddNode(a)
	rt.Call(id, func() { a.ctx.Send(99, note{}) })
	waitFor(t, time.Second, func() bool { return rt.Dropped() == 1 })
}

func TestDuplicateIDPanics(t *testing.T) {
	rt := NewRuntime(5)
	defer rt.Shutdown()
	rt.AddNodeWithID(7, &collector{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ID accepted")
		}
	}()
	rt.AddNodeWithID(7, &collector{})
}

func TestTCPTransportRoundTrip(t *testing.T) {
	// Two runtimes in one process connected by real TCP.
	rtA := NewRuntime(6)
	rtB := NewRuntime(7)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	trA := NewTCPTransport(rtA)
	trB := NewTCPTransport(rtB)
	defer trA.Close()
	defer trB.Close()
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, err := trA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := &collector{}
	b := &collector{}
	rtA.AddNodeWithID(0, a)
	rtB.AddNodeWithID(1, b)
	trA.Register(1, addrB)
	trB.Register(0, addrA)

	rtA.Call(0, func() { a.ctx.Send(1, proto.HeartbeatReq{Seq: 9, Backup: 3}) })
	waitFor(t, 2*time.Second, func() bool { return b.count() == 1 })
	b.mu.Lock()
	hb, ok := b.msgs[0].(proto.HeartbeatReq)
	b.mu.Unlock()
	if !ok || hb.Seq != 9 || hb.Backup != 3 {
		t.Fatalf("got %#v", b.msgs)
	}
	// And back.
	rtB.Call(1, func() { b.ctx.Send(0, proto.HeartbeatAck{Seq: 9}) })
	waitFor(t, 2*time.Second, func() bool { return a.count() == 1 })
}

// TestLivePeersFormDomainAndStream runs the real protocol stack on the
// live runtime: three peers over in-process mailboxes form a domain and
// complete a short transcoding session in real time.
func TestLivePeersFormDomainAndStream(t *testing.T) {
	src := media.Format{Codec: media.MPEG2, Width: 640, Height: 480, BitrateKbps: 256}
	tgt := media.Format{Codec: media.MPEG4, Width: 640, Height: 480, BitrateKbps: 64}
	tr := media.Transcoder{From: src, To: tgt}

	cfg := core.DefaultConfig()
	// Real time: keep periods short so the test is fast.
	cfg.HeartbeatPeriod = 50 * sim.Millisecond
	cfg.ProfilePeriod = 50 * sim.Millisecond
	cfg.BackupSyncPeriod = 100 * sim.Millisecond
	cfg.GossipPeriod = 0
	cfg.AdaptPeriod = 0
	cfg.DefaultChunkSec = 0.05 // 50ms chunks

	events := &core.Events{}
	rt := NewRuntime(8)
	defer rt.Shutdown()

	info := func(objects []media.Object) proto.PeerInfo {
		return proto.PeerInfo{
			SpeedWU:       50,
			BandwidthKbps: 10000,
			UptimeSec:     7200,
			Objects:       objects,
			Services:      []media.Transcoder{tr},
		}
	}
	obj := media.Object{Name: "clip", Format: src, Bytes: int64(0.5 * 256 * 1000 / 8)} // 0.5s
	founder := core.New(cfg, info([]media.Object{obj}), env.NoNode, events)
	p1 := core.New(cfg, info(nil), 0, events)
	p2 := core.New(cfg, info(nil), 0, events)
	ids := []env.NodeID{rt.AddNode(founder), rt.AddNode(p1), rt.AddNode(p2)}
	peers := []*core.Peer{founder, p1, p2}

	waitFor(t, 5*time.Second, func() bool {
		joined := 0
		for i, p := range peers {
			ok := false
			// Peer state is only safe to touch on its loop.
			p := p
			rt.Call(ids[i], func() { ok = p.Joined() })
			if ok {
				joined++
			}
		}
		return joined == 3
	})

	var taskID string
	rt.Call(2, func() {
		taskID = p2.SubmitTask(proto.TaskSpec{
			ObjectName: "clip",
			Constraint: media.Constraint{
				Codecs:         []media.Codec{media.MPEG4},
				MaxBitrateKbps: 64,
				MaxWidth:       640,
				MaxHeight:      480,
			},
			DeadlineMicros: 500_000,
			DurationSec:    0.5,
			ChunkSec:       0.05,
		})
	})
	if taskID == "" {
		t.Fatal("no task ID")
	}
	waitFor(t, 10*time.Second, func() bool { return len(events.Snapshot().Reports) == 1 })
	rep := events.Snapshot().Reports[0]
	if rep.Chunks != 10 || rep.Received != 10 {
		t.Fatalf("live session report %+v", rep)
	}
}

func TestKillSkipsStopHook(t *testing.T) {
	rt := NewRuntime(9)
	a := &collector{}
	id := rt.AddNode(a)
	rt.Kill(id)
	if a.stopped.Load() {
		t.Fatal("Kill ran the Stop hook")
	}
	// Idempotent; and Stop after Kill is a no-op.
	rt.Kill(id)
	rt.Stop(id)
}

func TestLiveRMFailover(t *testing.T) {
	// Kill the live RM; the backup must take over in real time.
	cfg := core.DefaultConfig()
	cfg.HeartbeatPeriod = 30 * sim.Millisecond
	cfg.HeartbeatMisses = 3
	cfg.ProfilePeriod = 50 * sim.Millisecond
	cfg.BackupSyncPeriod = 60 * sim.Millisecond
	cfg.GossipPeriod = 0
	cfg.AdaptPeriod = 0

	events := &core.Events{}
	rt := NewRuntime(10)
	defer rt.Shutdown()
	mk := func() proto.PeerInfo {
		return proto.PeerInfo{SpeedWU: 50, BandwidthKbps: 10000, UptimeSec: 7200}
	}
	peers := []*core.Peer{
		core.New(cfg, mk(), env.NoNode, events),
		core.New(cfg, mk(), 0, events),
		core.New(cfg, mk(), 0, events),
	}
	var ids []env.NodeID
	for _, p := range peers {
		ids = append(ids, rt.AddNode(p))
	}
	waitFor(t, 5*time.Second, func() bool {
		joined := 0
		for i, p := range peers {
			ok := false
			p := p
			rt.Call(ids[i], func() { ok = p.Joined() })
			if ok {
				joined++
			}
		}
		return joined == 3
	})
	// Give the backup a sync, then kill the RM hard.
	time.Sleep(200 * time.Millisecond)
	rt.Kill(ids[0])
	waitFor(t, 10*time.Second, func() bool {
		for i := 1; i < 3; i++ {
			is := false
			p := peers[i]
			rt.Call(ids[i], func() { is = p.IsRM() })
			if is {
				return true
			}
		}
		return false
	})
	if got := events.Snapshot().Failovers; got != 1 {
		t.Fatalf("failovers = %d", got)
	}
}
