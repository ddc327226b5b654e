package replay_test

// BenchmarkDeliver measures the flight recorder's cost on the message
// hot path in two regimes:
//
//   - local: same-runtime delivery (mailbox → dispatch) of protocol
//     heartbeats at saturation, millions of messages per second. The
//     recorder encodes, frames and buffers every delivery on the node
//     loop that dispatches it, so this isolates the per-event cost of
//     recording: the recorder's mutex, the codec encode, the CRC and,
//     once per 64 KiB, a file write.
//
//   - tcp: the deployed hot path — two runtimes joined over loopback
//     TCP, a windowed request/echo stream through the real wire codec.
//     This is the path every message takes between p2pnode daemons, the
//     rate regime recording is built for; the acceptance bound
//     (recording within 10% of not recording, zero events dropped) is
//     asserted here.
//
// Run with: go test ./internal/replay/ -run xxx -bench BenchmarkDeliver

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/env"
	"repro/internal/live"
	"repro/internal/proto"
	"repro/internal/replay"
)

// kickMsg starts the tcp benchmark's pump; it is injected locally and
// never crosses the wire.
type kickMsg struct{}

// sinkActor counts deliveries and signals done at a target count.
type sinkActor struct {
	received atomic.Int64
	target   int64
	done     chan struct{}
}

func (a *sinkActor) Init(ctx env.Context) {}
func (a *sinkActor) Stop()                {}
func (a *sinkActor) StateDigest() uint64  { return uint64(a.received.Load()) }
func (a *sinkActor) Receive(from env.NodeID, m env.Message) {
	if a.received.Add(1) == a.target {
		close(a.done)
	}
}

// injectWindow keeps the injector at most this far ahead of dispatch so
// the mailbox (depth live.MailboxDepth) never overflows into drops,
// which would make the two variants measure different work.
const injectWindow = live.MailboxDepth / 2

// newBenchRecorder attaches a fresh recorder to rt, before nodes exist.
func newBenchRecorder(b *testing.B, rt *live.Runtime) *replay.Recorder {
	b.Helper()
	rec, err := replay.NewRecorder(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rt.SetRecorder(rec, nil)
	return rec
}

// closeBenchRecorder detaches and flushes rec, reporting its shed rate.
func closeBenchRecorder(b *testing.B, rt *live.Runtime, rec *replay.Recorder, label string) {
	b.Helper()
	events, _, dropped := rec.Counters()
	b.ReportMetric(float64(dropped)/float64(b.N), "recdrops/op")
	if events == 0 {
		b.Fatalf("%s: recorder saw no events", label)
	}
	rt.SetRecorder(nil, nil)
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchLocal(b *testing.B, recording bool) {
	rt := live.NewRuntime(1)
	defer rt.Shutdown()

	var rec *replay.Recorder
	if recording {
		rec = newBenchRecorder(b, rt)
	}
	sink := &sinkActor{target: int64(b.N), done: make(chan struct{})}
	dst := rt.AddNode(sink)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-sink.received.Load() >= injectWindow {
			runtime.Gosched()
		}
		rt.Inject(dst, dst, proto.HeartbeatReq{Seq: uint64(i)})
	}
	<-sink.done
	b.StopTimer()

	if d := rt.Dropped(); d > 0 {
		b.Fatalf("mailbox dropped %d messages; injection window too wide", d)
	}
	if rec != nil {
		closeBenchRecorder(b, rt, rec, "local")
	}
}

// echoWindow bounds in-flight requests on the tcp benchmark; far below
// the mailbox depth, so no mailbox drops.
const echoWindow = 64

// pumpActor drives the tcp benchmark from inside node 0's loop: it
// keeps echoWindow requests outstanding and counts echoes until target.
// The wire payloads are real protocol heartbeats, as every payload that
// crosses the transport must be.
type pumpActor struct {
	ctx    env.Context
	target int
	sent   int
	acked  int
	done   chan struct{}
}

func (a *pumpActor) Init(ctx env.Context) { a.ctx = ctx }
func (a *pumpActor) Stop()                {}
func (a *pumpActor) Receive(from env.NodeID, m env.Message) {
	switch m.(type) {
	case kickMsg: // open the window
		for a.sent < a.target && a.sent < echoWindow {
			a.ctx.Send(1, proto.HeartbeatReq{Seq: uint64(a.sent)})
			a.sent++
		}
	case proto.HeartbeatAck:
		a.acked++
		if a.sent < a.target {
			a.ctx.Send(1, proto.HeartbeatReq{Seq: uint64(a.sent)})
			a.sent++
		}
		if a.acked == a.target {
			close(a.done)
		}
	}
}

// echoActor answers every request with an ack.
type echoActor struct{ ctx env.Context }

func (a *echoActor) Init(ctx env.Context) { a.ctx = ctx }
func (a *echoActor) Stop()                {}
func (a *echoActor) Receive(from env.NodeID, m env.Message) {
	if p, ok := m.(proto.HeartbeatReq); ok {
		a.ctx.Send(0, proto.HeartbeatAck{Seq: p.Seq})
	}
}

func benchTCP(b *testing.B, recording bool) {
	rtA := live.NewRuntime(2)
	rtB := live.NewRuntime(3)
	defer rtA.Shutdown()
	defer rtB.Shutdown()

	var recA, recB *replay.Recorder
	if recording {
		recA = newBenchRecorder(b, rtA)
		recB = newBenchRecorder(b, rtB)
	}

	trA := live.NewTCPTransport(rtA)
	trB := live.NewTCPTransport(rtB)
	defer trA.Close()
	defer trB.Close()
	addrA, err := trA.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	trA.Register(1, addrB)
	trB.Register(0, addrA)

	pump := &pumpActor{target: b.N, done: make(chan struct{})}
	rtA.AddNodeWithID(0, pump)
	rtB.AddNodeWithID(1, &echoActor{})

	b.ReportAllocs()
	b.ResetTimer()
	rtA.Inject(0, 0, kickMsg{})
	<-pump.done
	b.StopTimer()

	if d := rtA.Dropped() + rtB.Dropped(); d > 0 {
		b.Fatalf("mailboxes dropped %d messages", d)
	}
	if recording {
		for _, rec := range []*replay.Recorder{recA, recB} {
			if _, _, dropped := rec.Counters(); dropped > 0 {
				b.Fatalf("recorder shed %d events at deployed message rates", dropped)
			}
		}
		closeBenchRecorder(b, rtA, recA, "tcp A")
		closeBenchRecorder(b, rtB, recB, "tcp B")
	}
}

func BenchmarkDeliver(b *testing.B) {
	b.Run("local/recording=off", func(b *testing.B) { benchLocal(b, false) })
	b.Run("local/recording=on", func(b *testing.B) { benchLocal(b, true) })
	b.Run("tcp/recording=off", func(b *testing.B) { benchTCP(b, false) })
	b.Run("tcp/recording=on", func(b *testing.B) { benchTCP(b, true) })
}
