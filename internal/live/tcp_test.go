package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

// fastTransport returns a config with short timeouts for tests that
// exercise reconnect and circuit-breaker paths.
func fastTransport() TransportConfig {
	return TransportConfig{
		DialTimeout:      500 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       20 * time.Millisecond,
		CircuitThreshold: 3,
		CircuitCooldown:  20 * time.Millisecond,
	}
}

func TestSupervisorReconnectsAfterPeerRestart(t *testing.T) {
	rtA := NewRuntime(40)
	rtB := NewRuntime(41)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	cfg := fastTransport()
	cfg.CircuitThreshold = 100 // keep the circuit closed across the restart window
	trA := NewTCPTransportOpts(rtA, cfg, nil, nil)
	defer trA.Close()
	trB := NewTCPTransport(rtB)
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := &collector{}
	b := &collector{}
	rtA.AddNodeWithID(0, a)
	rtB.AddNodeWithID(1, b)
	trA.Register(1, addrB)

	rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "before"}) })
	waitFor(t, 2*time.Second, func() bool { return b.count() == 1 })

	// Kill the peer's transport, then bring a new one up on the same
	// address: the supervisor must notice the dead connection and redial.
	trB.Close()
	trB2 := NewTCPTransport(rtB)
	defer trB2.Close()
	if _, err := trB2.Listen(addrB); err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}

	// The first sends after the restart may be consumed by the dead
	// connection's kernel buffer; keep sending until one lands.
	waitFor(t, 5*time.Second, func() bool {
		rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "after"}) })
		return b.count() >= 2
	})
	if st := trA.Stats(); st.Reconnects < 1 {
		t.Fatalf("stats after restart = %+v, want >= 1 reconnect", st)
	}
}

func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	rtA := NewRuntime(42)
	rtB := NewRuntime(43)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	trB := NewTCPTransport(rtB)
	defer trB.Close()
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var healthy atomic.Bool
	cfg := fastTransport()
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if !healthy.Load() {
			return nil, errors.New("synthetic dial failure")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	trA := NewTCPTransportOpts(rtA, cfg, nil, nil)
	defer trA.Close()
	a := &collector{}
	b := &collector{}
	rtA.AddNodeWithID(0, a)
	rtB.AddNodeWithID(1, b)
	trA.Register(1, addrB)

	// First send parks in the supervisor, which fails CircuitThreshold
	// dials and opens the circuit.
	rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "held"}) })
	waitFor(t, 5*time.Second, func() bool { return trA.Stats().CircuitOpens == 1 })

	// While open, new sends fail fast with reason circuit_open.
	waitFor(t, 5*time.Second, func() bool {
		rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "shed"}) })
		return trA.Stats().Drops["circuit_open"] >= 1
	})
	if b.count() != 0 {
		t.Fatal("messages arrived while the peer was unreachable")
	}

	// Heal the link: the next probe reconnects, the held message is the
	// probe payload, and traffic flows again.
	healthy.Store(true)
	waitFor(t, 5*time.Second, func() bool { return b.count() >= 1 })
	waitFor(t, 5*time.Second, func() bool {
		rtA.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "resumed"}) })
		return b.count() >= 2
	})
	if st := trA.Stats(); st.Connects < 1 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

func TestTransportEncodeErrorDropsMessage(t *testing.T) {
	rt := NewRuntime(44)
	defer rt.Shutdown()
	cfg := fastTransport()
	cfg.MaxFrame = 64 // anything real exceeds this
	tr := NewTCPTransportOpts(rt, cfg, nil, nil)
	defer tr.Close()
	a := &collector{}
	rt.AddNodeWithID(0, a)
	tr.Register(1, "127.0.0.1:1") // never dialed: encode fails first

	rt.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: strings.Repeat("x", 4096)}) })
	waitFor(t, 2*time.Second, func() bool { return tr.Stats().Drops["encode_error"] == 1 })
	// A payload outside the wire codec drops the same way.
	rt.Call(0, func() { a.ctx.Send(1, note{S: "local only"}) })
	waitFor(t, 2*time.Second, func() bool { return tr.Stats().Drops["encode_error"] == 2 })
}

func TestTransportNoRouteDrop(t *testing.T) {
	rt := NewRuntime(45)
	defer rt.Shutdown()
	tr := NewTCPTransport(rt)
	defer tr.Close()
	a := &collector{}
	rt.AddNodeWithID(0, a)

	rt.Call(0, func() { a.ctx.Send(99, proto.TaskReject{Reason: "nowhere"}) })
	waitFor(t, 2*time.Second, func() bool { return tr.Stats().Drops["no_route"] == 1 })
	if rt.Dropped() != 1 {
		t.Fatalf("runtime dropped = %d, want 1", rt.Dropped())
	}
}

// dialInbound opens a raw connection to a listening transport, for
// tests that script the inbound byte stream by hand.
func dialInbound(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// requireHangup fails unless the transport has closed c.
func requireHangup(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(c)
	for {
		if _, err := br.ReadByte(); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("connection still open after a framing violation")
			}
			return
		}
	}
}

func TestInboundDecodeErrorKeepsConnection(t *testing.T) {
	rt := NewRuntime(46)
	defer rt.Shutdown()
	tr := NewTCPTransport(rt)
	defer tr.Close()
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &collector{}
	rt.AddNodeWithID(1, b)

	c := dialInbound(t, addr)
	// A well-framed data frame whose body is garbage must cost exactly
	// one message — the next frame on the same connection still
	// delivers.
	stream := []byte{wirePreamble, 5, frameData, 0xde, 0xad, 0xbe, 0xef}
	stream = append(stream, dataFrame(t, 0, 1, proto.TaskReject{Reason: "alive"})...)
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return b.count() == 1 })
	if st := tr.Stats(); st.DecodeErrors != 1 || st.FramesRx != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func init() {
	// The legacy frame in TestInboundRetiredGobFrameKindKeepsConnection
	// is built with gob, which needs the payload's concrete type.
	gob.Register(proto.TaskReject{})
}

func TestInboundRetiredGobFrameKindKeepsConnection(t *testing.T) {
	rt := NewRuntime(50)
	defer rt.Shutdown()
	tr := NewTCPTransport(rt)
	defer tr.Close()
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &collector{}
	rt.AddNodeWithID(1, b)

	c := dialInbound(t, addr)
	// Kind 0x02 carried a self-contained gob wireMsg. Even a well-formed
	// one must be counted and skipped, never decoded: the sender would
	// otherwise choose the types the receiver's decoder runs on.
	var legacy bytes.Buffer
	legacy.WriteByte(0x02)
	if err := gob.NewEncoder(&legacy).Encode(wireMsg{From: 0, To: 1, Payload: proto.TaskReject{Reason: "legacy"}}); err != nil {
		t.Fatal(err)
	}
	stream := binary.AppendUvarint([]byte{wirePreamble}, uint64(legacy.Len()))
	stream = append(stream, legacy.Bytes()...)
	stream = append(stream, dataFrame(t, 0, 1, proto.TaskReject{Reason: "next"})...)
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return b.count() == 1 })
	if st := tr.Stats(); st.DecodeErrors != 1 || st.FramesRx != 1 || st.FrameErrors != 0 {
		t.Fatalf("stats = %+v, want 1 decode error, 1 frame delivered, 0 frame errors", st)
	}
	b.mu.Lock()
	got := b.msgs[0].(proto.TaskReject).Reason
	b.mu.Unlock()
	if got != "next" {
		t.Fatalf("delivered %q, want the frame after the retired one", got)
	}
}

func TestInboundWithoutVersionByteClosesConnection(t *testing.T) {
	rt := NewRuntime(51)
	defer rt.Shutdown()
	tr := NewTCPTransport(rt)
	defer tr.Close()
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &collector{}
	rt.AddNodeWithID(1, b)

	c := dialInbound(t, addr)
	// What a version-1 sender opened with: a 4-byte big-endian length
	// prefix, then the frame.
	if _, err := c.Write([]byte{0, 0, 0, 5, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return tr.Stats().FrameErrors == 1 })
	requireHangup(t, c)
	if st := tr.Stats(); st.FrameErrors != 1 || st.FramesRx != 0 || st.DecodeErrors != 0 || b.count() != 0 {
		t.Fatalf("stats = %+v, delivered %d; want exactly one frame error and nothing injected", st, b.count())
	}
}

func TestInboundOversizedFrameClosesConnection(t *testing.T) {
	rt := NewRuntime(47)
	defer rt.Shutdown()
	cfg := fastTransport()
	cfg.MaxFrame = 1024
	tr := NewTCPTransportOpts(rt, cfg, nil, nil)
	defer tr.Close()
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c := dialInbound(t, addr)
	if _, err := c.Write(binary.AppendUvarint([]byte{wirePreamble}, 1<<30)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return tr.Stats().FrameErrors == 1 })
	// The reader must have hung up rather than trying to resync.
	requireHangup(t, c)
}

func TestTransportClosedRejectsSends(t *testing.T) {
	rt := NewRuntime(48)
	defer rt.Shutdown()
	tr := NewTCPTransport(rt)
	a := &collector{}
	rt.AddNodeWithID(0, a)
	tr.Register(1, "127.0.0.1:1")
	tr.Close()
	before := rt.Dropped()
	rt.Call(0, func() { a.ctx.Send(1, proto.TaskReject{Reason: "too late"}) })
	waitFor(t, 2*time.Second, func() bool { return rt.Dropped() == before+1 })
}

func TestTransportCloseRacesAccept(t *testing.T) {
	// Regression for the acceptLoop/Close race: connections arriving
	// while Close runs must never wg.Add after wg.Wait started. Run a
	// burst of dial-while-close rounds; -race verifies the rest.
	for i := 0; i < 20; i++ {
		rt := NewRuntime(uint64(49 + i))
		tr := NewTCPTransport(rt)
		addr, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 10; j++ {
				c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		tr.Close()
		<-done
		rt.Shutdown()
	}
}
