package replay

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/rng"
)

// testActor is a deterministic actor: Init draws one random value and
// arms a timer that announces a tick (a Leave); every ping (a
// HeartbeatReq) is answered with a pong (a HeartbeatAck carrying Seq+1).
// The messages are protocol messages so recorded deliveries take the
// codec path. Its digest folds in the draw, so a replay that resumes the
// wrong rng stream diverges at the first checkpoint.
type testActor struct {
	ctx   env.Context
	peer  env.NodeID
	draw  uint64
	pings int
	ticks int
}

func (a *testActor) Init(ctx env.Context) {
	a.ctx = ctx
	a.draw = ctx.Rand().Uint64()
	ctx.After(1000, func() {
		a.ticks++
		ctx.Send(a.peer, proto.Leave{})
	})
}

func (a *testActor) Receive(from env.NodeID, m env.Message) {
	if p, ok := m.(proto.HeartbeatReq); ok {
		a.pings++
		a.ctx.Send(from, proto.HeartbeatAck{Seq: p.Seq + 1})
	}
}

func (a *testActor) Stop() {}

func (a *testActor) StateDigest() uint64 {
	return uint64(a.pings)*1000 + uint64(a.ticks) + (a.draw & 0xff)
}

// recordScript synthesizes the log the live runtime would produce for
// one testActor (node 1, peer 2, seed 42): start, a ping delivery that
// provokes a pong, the tick timer firing, a digest checkpoint, stop.
func recordScript(t *testing.T) *Log {
	t.Helper()
	dir := t.TempDir()
	rec, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	draw := rng.New(seed).Uint64()
	digest := func(pings, ticks int) uint64 {
		return uint64(pings)*1000 + uint64(ticks) + (draw & 0xff)
	}
	rec.RecordStart(1, 0, seed, nil)
	rec.RecordDeliver(1, 2, 500, proto.HeartbeatReq{Seq: 7})
	rec.RecordSend(1, 2, 500, proto.HeartbeatAck{Seq: 8})
	rec.RecordTimer(1, 1000, 1, 1000)
	rec.RecordSend(1, 2, 1000, proto.Leave{})
	rec.RecordDigest(1, 1400, digest(1, 1))
	rec.RecordStop(1, 2000, digest(1, 1), true)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func testOptions() Options {
	return Options{
		Factory: func(node env.NodeID, init []byte) (env.Actor, error) {
			return &testActor{peer: 2}, nil
		},
	}
}

func TestReplayMatchesRecording(t *testing.T) {
	lg := recordScript(t)
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged != nil {
		t.Fatalf("unexpected divergence: %v", res.Diverged)
	}
	if res.Nodes != 1 || res.Sends != 2 || res.Digests != 2 {
		t.Fatalf("result = %+v, want 1 node, 2 sends, 2 digests", res)
	}
}

func TestReplayDetectsSendMismatch(t *testing.T) {
	lg := recordScript(t)
	// The recording claims the pong went to node 3.
	for i := range lg.Events {
		if lg.Events[i].Kind == KSend && lg.Events[i].Name == MessageType(proto.HeartbeatAck{}) {
			lg.Events[i].Peer = 3
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diverged
	if d == nil || d.Kind != "send-mismatch" {
		t.Fatalf("got %v, want send-mismatch", d)
	}
	if d.Node != 1 || d.Index != 2 || d.Time != 500 {
		t.Fatalf("divergence location = node %d, t=%v, event %d; want node 1, t=500µs, event 2", d.Node, d.Time, d.Index)
	}
}

func TestReplayDetectsMissingTimer(t *testing.T) {
	lg := recordScript(t)
	for i := range lg.Events {
		if lg.Events[i].Kind == KTimer {
			lg.Events[i].Aux = 99 // a timer replay never arms
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged == nil || res.Diverged.Kind != "timer-missing" {
		t.Fatalf("got %v, want timer-missing", res.Diverged)
	}
}

func TestReplayDetectsDigestMismatch(t *testing.T) {
	lg := recordScript(t)
	for i := range lg.Events {
		if lg.Events[i].Kind == KDigest {
			lg.Events[i].Aux ^= 0xffff
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diverged
	if d == nil || d.Kind != "digest-mismatch" {
		t.Fatalf("got %v, want digest-mismatch", d)
	}
	if d.Node != 1 || d.Index != 5 {
		t.Fatalf("divergence at node %d event %d, want node 1 event 5", d.Node, d.Index)
	}
}

func TestReplayDetectsWrongSeed(t *testing.T) {
	lg := recordScript(t)
	for i := range lg.Events {
		if lg.Events[i].Kind == KStart {
			lg.Events[i].Aux = 43 // wrong rng stream → digest folds in a different draw
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged == nil || res.Diverged.Kind != "digest-mismatch" {
		t.Fatalf("got %v, want digest-mismatch from the wrong seed", res.Diverged)
	}
}

func TestReplayDetectsMissingSend(t *testing.T) {
	lg := recordScript(t)
	// The recording claims an extra send replay never produces.
	extra := Event{Kind: KSend, Node: 1, Peer: 2, Time: 1900, Name: MessageType(proto.HeartbeatReq{})}
	lg.Events = append(lg.Events[:6:6], append([]Event{extra}, lg.Events[6:]...)...)
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged == nil || res.Diverged.Kind != "missing-send" {
		t.Fatalf("got %v, want missing-send", res.Diverged)
	}
}

func TestReplayDetectsUndecodablePayload(t *testing.T) {
	lg := recordScript(t)
	idx := -1
	for i := range lg.Events {
		if lg.Events[i].Kind == KDeliver {
			lg.Events[i].Data = []byte("not a codec message")
			idx = i
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Diverged; d == nil || d.Kind != "decode" || d.Index != idx {
		t.Fatalf("got %v, want a decode divergence at event %d", d, idx)
	}
}

func TestReplayGobStreamPayloadIsReported(t *testing.T) {
	// A delivery with Aux=0 is a segment of the gob payload stream older
	// recorders wrote. Replay must name the event and the reason, never
	// panic and never try to decode it.
	lg := recordScript(t)
	idx := -1
	for i := range lg.Events {
		if lg.Events[i].Kind == KDeliver {
			lg.Events[i].Aux = 0
			lg.Events[i].Data = []byte{0x0c, 0xff, 0x81, 0x03, 0x01}
			idx = i
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diverged
	if d == nil || d.Kind != "decode" || d.Index != idx {
		t.Fatalf("got %v, want a decode divergence at event %d", d, idx)
	}
	if !strings.Contains(d.Detail, "gob payload stream") || !strings.Contains(d.Detail, "no longer supported") {
		t.Fatalf("detail does not explain the unsupported encoding: %s", d.Detail)
	}
	if !strings.Contains(d.String(), fmt.Sprintf("event %d", idx)) {
		t.Fatalf("report does not name the event index: %s", d)
	}
}

func TestReplayUnencodablePayloadIsReported(t *testing.T) {
	dir := t.TempDir()
	rec, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	type localOnly struct{ N int }
	rec.RecordStart(1, 0, 42, nil)
	rec.RecordDeliver(1, 2, 500, localOnly{N: 1})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e := lg.Events[1]; e.Aux != auxUnencodable || len(e.Data) != 0 {
		t.Fatalf("recorded unencodable payload as %+v, want a typed marker", e)
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diverged
	if d == nil || d.Kind != "unencodable-payload" || d.Index != 1 {
		t.Fatalf("got %v, want unencodable-payload at event 1", d)
	}
	if !strings.Contains(d.Detail, "localOnly") || strings.Contains(d.Detail, "RegisterMessages") {
		t.Fatalf("detail = %q; want the type named and no registration advice", d.Detail)
	}
}

func TestReplayDeliverToUnknownNode(t *testing.T) {
	lg := recordScript(t)
	for i := range lg.Events {
		if lg.Events[i].Kind == KDeliver {
			lg.Events[i].Node = 9
		}
	}
	res, err := Replay(lg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged == nil || res.Diverged.Kind != "unknown-node" {
		t.Fatalf("got %v, want unknown-node", res.Diverged)
	}
	if !strings.Contains(res.Diverged.Detail, "node 9") {
		t.Fatalf("detail does not name the node: %s", res.Diverged.Detail)
	}
}

func TestReplayCancelledTimerStaysArmed(t *testing.T) {
	// An actor that cancels its timer; a recording claiming the timer
	// fired must diverge (timer-missing), and one without the firing
	// must replay cleanly.
	factory := func(node env.NodeID, init []byte) (env.Actor, error) {
		return &cancelActor{}, nil
	}
	dir := t.TempDir()
	rec, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec.RecordStart(1, 0, 7, nil)
	rec.RecordStop(1, 500, 0, false)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(lg, Options{Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged != nil {
		t.Fatalf("cancelled-timer run diverged: %v", res.Diverged)
	}

	withTimer := &Log{Events: append(append([]Event(nil), lg.Events[0]),
		Event{Kind: KTimer, Node: 1, Time: 400, Aux: 1, Aux2: 1000}, lg.Events[1])}
	res, err = Replay(withTimer, Options{Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged == nil || res.Diverged.Kind != "timer-missing" {
		t.Fatalf("got %v, want timer-missing for a cancelled timer", res.Diverged)
	}
}

type cancelActor struct{}

func (a *cancelActor) Init(ctx env.Context) {
	cancel := ctx.After(1000, func() {})
	cancel.Cancel()
}
func (a *cancelActor) Receive(from env.NodeID, m env.Message) {}
func (a *cancelActor) Stop()                                  {}
