package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/env"
	"repro/internal/proto"
)

// This file is the live transport's wire format, version 2. A
// connection opens with one version byte (wirePreamble), then carries
// uvarint-length-prefixed frames: [uvarint len][u8 frame kind][body].
// Data frames (frameData) encode the routing pair as varints and the
// payload with the zero-alloc proto codec; payload types outside the
// codec's message set cannot be sent and drop at the sender as
// encode_error. Credit frames (frameCredit) flow the other way on the
// same connection: the receiver grants message/byte credits the
// sender's supervisor spends (supervisor.go). A connection that opens
// with any other byte is closed and counted as a frame error.

// DefaultMaxFrame bounds one frame's payload; frames larger than the
// limit are refused on both the encode and decode side. The largest
// legitimate messages (backup-sync snapshots) are a few hundred KB at
// paper scale, so 8 MiB leaves generous headroom.
const DefaultMaxFrame = 8 << 20

// wirePreamble is the version byte that opens every connection.
const wirePreamble = 0xB2

// Frame kinds (first byte of every frame body). 0x02 carried a gob
// payload in an earlier version of the format; it is retired and must
// not be reused.
const (
	// frameData: varint from, varint to, one proto-codec message.
	frameData = 0x01
	// frameCredit: uvarint message credits, uvarint byte credits;
	// written by the receiving side of a connection back to the sender.
	frameCredit = 0x03
)

// maxCreditFrame bounds a credit frame read by the sender-side grant
// reader: kind byte plus two maximal uvarints, rounded up.
const maxCreditFrame = 32

// errFrameTooLarge marks a frame whose declared payload exceeds the
// transport's limit. The connection cannot be resynchronized past it.
var errFrameTooLarge = errors.New("live: frame exceeds size limit")

// errUnencodable marks a payload the proto codec has no encoding for (a
// type outside its message set, or a gossip digest out of canonical
// order); the supervisor drops it as encode_error.
var errUnencodable = errors.New("live: payload has no wire codec encoding")

// appendFrame appends wm to dst as one data frame. scratch holds the
// frame body between calls so the length prefix can be sized exactly;
// both buffers' capacity is reused across calls and the steady-state
// path allocates nothing.
func appendFrame(dst []byte, wm wireMsg, maxFrame int, scratch *[]byte) ([]byte, error) {
	body := append((*scratch)[:0], frameData)
	body = binary.AppendVarint(body, int64(wm.From))
	body = binary.AppendVarint(body, int64(wm.To))
	body, ok := proto.AppendMessage(body, wm.Payload)
	*scratch = body
	if !ok {
		return dst, fmt.Errorf("%w: %T", errUnencodable, wm.Payload)
	}
	if maxFrame > 0 && len(body) > maxFrame {
		return dst, fmt.Errorf("%w: %d > %d bytes", errFrameTooLarge, len(body), maxFrame)
	}
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

// appendCreditFrame appends one credit grant to dst.
func appendCreditFrame(dst []byte, msgs, bytes uint64) []byte {
	var body [1 + 2*binary.MaxVarintLen64]byte
	b := append(body[:0], frameCredit)
	b = binary.AppendUvarint(b, msgs)
	b = binary.AppendUvarint(b, bytes)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readFrame reads one uvarint-length-prefixed frame body from r into
// buf (grown as needed, reused across calls). Frame-level errors (short
// reads, oversized declarations) are unrecoverable for the stream;
// payload corruption is left for decodeFrameData to report so the
// caller can keep the connection.
func readFrame(r *bufio.Reader, maxFrame int, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if (maxFrame > 0 && n > uint64(maxFrame)) || n > DefaultMaxFrame*4 {
		return nil, fmt.Errorf("%w: declared %d > %d bytes", errFrameTooLarge, n, maxFrame)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// decodeFrameData decodes a frameData body (kind byte already
// inspected, still present at body[0]).
func decodeFrameData(body []byte) (wireMsg, error) {
	var wm wireMsg
	b := body[1:]
	from, n := binary.Varint(b)
	if n <= 0 {
		return wm, errors.New("live: v2 frame: bad from")
	}
	b = b[n:]
	to, n := binary.Varint(b)
	if n <= 0 {
		return wm, errors.New("live: v2 frame: bad to")
	}
	b = b[n:]
	m, err := proto.DecodeMessage(b)
	if err != nil {
		return wm, err
	}
	wm.From, wm.To, wm.Payload = env.NodeID(from), env.NodeID(to), m
	return wm, nil
}

// decodeCreditFrame parses a frameCredit body (kind byte at body[0]).
func decodeCreditFrame(body []byte) (msgs, bytes uint64, err error) {
	b := body[1:]
	msgs, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, errors.New("live: credit frame: bad message count")
	}
	b = b[n:]
	bytes, n = binary.Uvarint(b)
	if n <= 0 || len(b) != n {
		return 0, 0, errors.New("live: credit frame: bad byte count")
	}
	return msgs, bytes, nil
}
