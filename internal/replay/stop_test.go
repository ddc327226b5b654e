package replay_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/live"
	"repro/internal/proto"
	"repro/internal/replay"
)

// gateActor answers a ping with a pong, first waiting on gate (when
// set) so a test can hold the handler open. Its Stop hook sends a
// Leave, which the runtime must drop.
type gateActor struct {
	ctx     env.Context
	entered chan struct{}
	gate    chan struct{}
}

func (a *gateActor) Init(ctx env.Context) { a.ctx = ctx }
func (a *gateActor) Stop()                { a.ctx.Send(1, proto.Leave{}) }
func (a *gateActor) Receive(from env.NodeID, m env.Message) {
	if p, ok := m.(proto.HeartbeatReq); ok {
		if a.gate != nil {
			close(a.entered)
			<-a.gate
		}
		a.ctx.Send(from, proto.HeartbeatAck{Seq: p.Seq + 1})
	}
}

// pingActor pings node 0 once and counts what comes back.
type pingActor struct {
	acks, leaves atomic.Int32
}

func (a *pingActor) Init(ctx env.Context) { ctx.Send(0, proto.HeartbeatReq{Seq: 1}) }
func (a *pingActor) Stop()                {}
func (a *pingActor) Receive(from env.NodeID, m env.Message) {
	switch m.(type) {
	case proto.HeartbeatAck:
		a.acks.Add(1)
	case proto.Leave:
		a.leaves.Add(1)
	}
}

// TestStopDuringHandlerKeepsItsSends: Stop arrives while a handler is
// running; the sends that handler makes afterwards are delivered and
// recorded, the Stop hook's are not, and the recording replays clean.
func TestStopDuringHandlerKeepsItsSends(t *testing.T) {
	dir := t.TempDir()
	rec, err := replay.NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := live.NewRuntime(3)
	defer rt.Shutdown()
	rt.SetRecorder(rec, nil)
	gated := &gateActor{entered: make(chan struct{}), gate: make(chan struct{})}
	pinger := &pingActor{}
	rt.AddNodeWithID(0, gated)
	rt.AddNodeWithID(1, pinger)
	<-gated.entered

	// Two concurrent Stops: the one that flags the node waits for the
	// blocked handler, so the other returning means the flag is set.
	returned := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() { rt.Stop(0); returned <- struct{}{} }()
	}
	<-returned
	close(gated.gate)
	<-returned

	deadline := time.Now().Add(5 * time.Second)
	for pinger.acks.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rt.Stop(1)
	if n := pinger.acks.Load(); n != 1 {
		t.Fatalf("pinger received %d acks, want the 1 its ping's handler sent after Stop", n)
	}
	if n := pinger.leaves.Load(); n != 0 {
		t.Fatalf("pinger received %d Leaves from the Stop hook, want 0", n)
	}
	rt.SetRecorder(nil, nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := replay.ReadLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Replay(lg, replay.Options{Factory: func(node env.NodeID, _ []byte) (env.Actor, error) {
		if node == 0 {
			return &gateActor{}, nil
		}
		return &pingActor{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged != nil {
		t.Fatalf("replay diverged: %s", res.Diverged)
	}
	if res.Sends != 2 {
		t.Fatalf("replay compared %d sends, want the ping and the pong", res.Sends)
	}
}
