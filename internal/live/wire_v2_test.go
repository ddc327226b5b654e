package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/proto"
)

func TestWireV2FrameRoundTrip(t *testing.T) {
	var scratch []byte
	in := wireMsg{From: 3, To: 7, Payload: proto.HeartbeatReq{Seq: 42, Backup: 1}}
	frame, err := appendFrameV2(nil, in, DefaultMaxFrame, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	body, err := readFrameV2(bufio.NewReader(bytes.NewReader(frame)), DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != frameData {
		t.Fatalf("frame kind = %#x, want frameData", body[0])
	}
	out, err := decodeFrameV2Data(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.From != 3 || out.To != 7 || out.Payload.(proto.HeartbeatReq).Seq != 42 {
		t.Fatalf("round trip mangled message: %#v", out)
	}
}

func TestWireV2EncodeRejectsUnencodable(t *testing.T) {
	// note is outside the codec's message set: the frame is refused and
	// dst is left as it was, so the supervisor can drop just this message.
	var scratch []byte
	dst := []byte{0xaa}
	out, err := appendFrameV2(dst, wireMsg{From: 1, To: 2, Payload: note{S: "local only"}}, DefaultMaxFrame, &scratch)
	if !errors.Is(err, errUnencodable) {
		t.Fatalf("err = %v, want errUnencodable", err)
	}
	if !bytes.Equal(out, dst) {
		t.Fatalf("dst changed on rejected encode: %x", out)
	}
}

func TestWireV2CreditFrameRoundTrip(t *testing.T) {
	frame := appendCreditFrame(nil, 8192, 4<<20)
	body, err := readFrameV2(bufio.NewReader(bytes.NewReader(frame)), maxCreditFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != frameCredit {
		t.Fatalf("frame kind = %#x, want frameCredit", body[0])
	}
	msgs, bts, err := decodeCreditFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != 8192 || bts != 4<<20 {
		t.Fatalf("credit round trip = (%d, %d), want (8192, %d)", msgs, bts, 4<<20)
	}
}

func TestWireV2EncodeRejectsOversized(t *testing.T) {
	var scratch []byte
	_, err := appendFrameV2(nil, wireMsg{Payload: proto.TaskReject{Reason: string(make([]byte, 4096))}}, 64, &scratch)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
}

func TestWireV2ReadRejectsOversizedDeclaration(t *testing.T) {
	hdr := binary.AppendUvarint(nil, 1<<40)
	_, err := readFrameV2(bufio.NewReader(bytes.NewReader(hdr)), DefaultMaxFrame, nil)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
}

// FuzzWireCodec fuzzes the inbound frame path (readInbound) from one
// data frame per message kind, each also truncated, plus credit and
// retired-kind frames and hostile framing.
func FuzzWireCodec(f *testing.F) {
	seed := func(m env.Message) {
		frame := dataFrame(f, 1, 2, m)
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncation
	}
	// Every kind in the message set, zero-valued, plus richer shapes for
	// the hot-path messages.
	for _, m := range []env.Message{
		proto.Join{}, proto.JoinRedirect{}, proto.JoinAccept{}, proto.BecomeRM{},
		proto.Leave{}, proto.HeartbeatReq{}, proto.HeartbeatAck{}, proto.ProfileUpdate{},
		proto.BackupSync{}, proto.TakeoverAnnounce{}, proto.TaskSubmit{}, proto.TaskReject{},
		proto.GraphCompose{}, proto.ComposeAck{}, proto.SessionStart{}, proto.Chunk{},
		proto.SessionAbort{}, proto.SessionEnd{}, proto.GossipDigest{}, proto.GossipSummaries{},
		proto.HeartbeatReq{Seq: 1 << 40, Backup: 3},
		proto.Chunk{TaskID: "t", Generation: 1, Index: 9, SizeKBv: 96.5, Deadline: 1, Emitted: 2},
		proto.GossipDigest{From: proto.RMRef{Domain: 1, RM: 2}, Versions: []proto.DomainVersion{{Domain: 1, Version: 4}, {Domain: 9, Version: 2}}},
		proto.FindNode{}, proto.FindValue{}, proto.Store{}, proto.Nodes{}, proto.Providers{},
	} {
		seed(m)
	}
	// Gossip digests out of canonical order, from 1 to 2: the encoder
	// refuses to write them, so they are framed by hand. Decoding must
	// reject them (readInbound re-encodes whatever decodes).
	for _, payload := range [][]byte{
		{0x13, 2, 2, 2, 6, 1, 2, 1},       // versions unsorted
		{0x13, 2, 2, 3, 2, 1, 8, 2, 8, 3}, // a domain twice
	} {
		body := append([]byte{frameData, 2, 4}, payload...)
		f.Add(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
	}
	f.Add(appendCreditFrame(nil, 8192, 4<<20))
	f.Add(binary.AppendUvarint(nil, 1<<40)) // hostile length declaration
	f.Add([]byte{3, frameData, 0x80, 0x80}) // truncated varint routing
	f.Add([]byte{2, frameCredit, 0xff})     // malformed credit body
	f.Add([]byte{0})                        // empty frame
	f.Add([]byte{3, 0x02, 0x0e, 0xff})      // retired gob frame kind
	f.Fuzz(readInbound)
}

// TestCreditExhaustionShedsAtSource scripts the receiving side of a v2
// connection by hand: it grants a tiny window, lets the sender exhaust
// it, and requires the overflow to shed at the source with reason
// no_credit. A later grant must reopen the window.
func TestCreditExhaustionShedsAtSource(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	grantMore := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		if b, err := br.ReadByte(); err != nil || b != wireV2Preamble {
			return
		}
		c.Write(appendCreditFrame(nil, 2, 1<<20))
		go io.Copy(io.Discard, br) // drain data frames so writes never block
		<-grantMore
		c.Write(appendCreditFrame(nil, 100, 1<<20))
		<-grantMore // hold the connection open until the test ends
	}()
	defer close(grantMore)

	rt := NewRuntime(72)
	defer rt.Shutdown()
	tr := NewTCPTransportOpts(rt, fastTransport(), nil, nil)
	defer tr.Close()
	addr := ln.Addr().String()
	tr.Register(9, addr)

	// First send spawns the supervisor; before the grant lands the
	// window is unlimited, so it goes through.
	if err := tr.send(0, 9, proto.HeartbeatReq{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		tr.mu.Lock()
		s := tr.sups[addr]
		tr.mu.Unlock()
		return s != nil && s.creditOn.Load()
	})

	// The window holds 2 messages; the third must shed with no_credit.
	sent, shed := 0, 0
	for i := 1; i <= 8 && shed == 0; i++ {
		if err := tr.send(0, 9, proto.HeartbeatReq{Seq: uint64(i)}); err == nil {
			sent++
		} else if errors.Is(err, errNoCredit) {
			shed++
		} else {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if sent != 2 || shed != 1 {
		t.Fatalf("admitted %d and shed %d against a 2-message window, want 2 and 1", sent, shed)
	}
	if got := tr.Stats().Drops["no_credit"]; got != 1 {
		t.Fatalf("no_credit drops = %d, want 1", got)
	}

	// A replenishing grant reopens the window and sends flow again.
	grantMore <- struct{}{}
	waitFor(t, 2*time.Second, func() bool {
		return tr.send(0, 9, proto.HeartbeatReq{Seq: 99}) == nil
	})
}

// TestCoalescingBatchesBurst pushes a burst through one supervisor and
// requires the flush loop to pack multiple frames per write: the batch
// count must come in under the frame count, and every message must
// still arrive.
func TestCoalescingBatchesBurst(t *testing.T) {
	rtA := NewRuntime(73)
	rtB := NewRuntime(74)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	trA := NewTCPTransportOpts(rtA, fastTransport(), nil, nil)
	trB := NewTCPTransportOpts(rtB, fastTransport(), nil, nil)
	defer trA.Close()
	defer trB.Close()
	addrB, err := trB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trA.Register(1, addrB)

	b := &collector{}
	rtB.AddNodeWithID(1, b)
	a := &collector{}
	rtA.AddNodeWithID(0, a)

	const burst = 300
	rtA.Call(0, func() {
		for i := 0; i < burst; i++ {
			a.ctx.Send(1, proto.HeartbeatReq{Seq: uint64(i)})
		}
	})
	// The sender counts a batch after its write returns, so the receiver
	// can hold every frame before the counter moves.
	waitFor(t, 5*time.Second, func() bool { return b.count() == burst && trA.Stats().Sent >= burst })

	st := trA.Stats()
	if st.Sent != burst {
		t.Fatalf("sent %d frames, want %d", st.Sent, burst)
	}
	if st.Batches == 0 || st.Batches >= st.Sent {
		t.Fatalf("batches = %d for %d frames; a burst must coalesce", st.Batches, st.Sent)
	}
	t.Logf("%d frames in %d writes (%.1f frames/write)",
		st.Sent, st.Batches, float64(st.Sent)/float64(st.Batches))
}
