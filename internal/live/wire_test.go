package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
)

// dataFrame encodes one data frame for tests that script the wire by
// hand.
func dataFrame(t testing.TB, from, to env.NodeID, m env.Message) []byte {
	t.Helper()
	var scratch []byte
	frame, err := appendFrame(nil, wireMsg{From: from, To: to, Payload: m}, DefaultMaxFrame, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestWireFrameTruncated(t *testing.T) {
	frame := dataFrame(t, 1, 2, proto.TaskReject{TaskID: "t", Reason: "x"})
	for cut := 1; cut < len(frame); cut++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:cut])), DefaultMaxFrame, nil)
		if err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) read without error", cut, len(frame))
		}
		if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame (%d bytes): err = %v, want EOF-ish", cut, err)
		}
	}
}

// readInbound feeds one byte stream through the inbound frame path the
// way readLoop does once the version byte is consumed: readFrame plus
// a per-kind decode, in a loop. No input may panic, allocate what a
// hostile length declares, or wedge the reader. Frames that decode to a
// message must also satisfy the codec's round-trip stability property:
// re-encoding the decoded message and decoding it again yields
// byte-identical bytes.
func readInbound(t *testing.T, data []byte) {
	br := bufio.NewReader(bytes.NewReader(data))
	var buf []byte
	const maxFrame = 1 << 16
	// Every iteration consumes at least the length uvarint's first byte,
	// so the loop is bounded by len(data); cap it as a wedge guard.
	for i := 0; i <= len(data)+1; i++ {
		body, err := readFrame(br, maxFrame, buf)
		if err != nil {
			return // stream over or unrecoverable: readLoop closes
		}
		buf = body
		if len(body) == 0 {
			return // readLoop closes on an empty frame
		}
		switch body[0] {
		case frameData:
			wm, err := decodeFrameData(body)
			if err != nil {
				continue // errors here keep the connection
			}
			enc1, ok := proto.AppendMessage(nil, wm.Payload)
			if !ok {
				t.Fatalf("decoded %T but cannot re-encode it", wm.Payload)
			}
			m2, err := proto.DecodeMessage(enc1)
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", wm.Payload, err)
			}
			enc2, _ := proto.AppendMessage(nil, m2)
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%T: re-encoding is not byte-stable", wm.Payload)
			}
		case frameCredit:
			decodeCreditFrame(body)
		}
	}
	t.Fatalf("reader failed to make progress on %d bytes", len(data))
}

// FuzzWireFrame fuzzes the inbound frame path from framing-level seeds:
// truncated frames and length prefixes, hostile length declarations,
// garbage bodies and back-to-back frames. FuzzWireCodec runs the same
// path from one seed per message kind.
func FuzzWireFrame(f *testing.F) {
	valid := dataFrame(f, 1, 2, proto.TaskReject{TaskID: "seed", Reason: "seed"})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                         // truncated payload
	f.Add([]byte{0x80})                                 // truncated length prefix
	f.Add(binary.AppendUvarint(nil, 1<<31))             // oversized declaration
	f.Add([]byte{5, frameData, 0xde, 0xad, 0xbe, 0xef}) // garbage body
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames back-to-back
	f.Fuzz(readInbound)
}
