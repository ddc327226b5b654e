package proto

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/env"
)

func init() {
	// The gob baseline encodes through an interface value, so gob needs
	// the concrete types; nothing outside this file uses gob.
	gob.Register(HeartbeatReq{})
	gob.Register(Chunk{})
}

// BenchmarkWireCodec measures the codec against the gob-per-frame
// encoding the live transport used before it (version 1 of the wire
// format), on the two payload shapes that dominate live traffic:
// heartbeats (the steady-state control plane) and chunks (the streaming
// data plane). The encode path must stay zero-alloc and the decode path
// must allocate only the message itself. The gob rows are context only.
func BenchmarkWireCodec(b *testing.B) {
	hb := HeartbeatReq{Seq: 123456, Backup: 3}
	ck := Chunk{TaskID: "task-17", Generation: 1, Index: 40, NextStage: 2,
		SizeKBv: 96.5, Deadline: 5_000_000, Emitted: 4_900_000}

	encode := func(b *testing.B, m env.Message) {
		b.ReportAllocs()
		buf := make([]byte, 0, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			buf, _ = AppendMessage(buf, m)
		}
		b.SetBytes(int64(len(buf)))
	}
	decode := func(b *testing.B, m env.Message) {
		b.ReportAllocs()
		enc, _ := AppendMessage(nil, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeMessage(enc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(enc)))
	}
	gobEncode := func(b *testing.B, m env.Message) {
		b.ReportAllocs()
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			// One self-contained stream per message, as the v1 wire
			// format pays it.
			if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	}

	b.Run("encode/heartbeat", func(b *testing.B) { encode(b, hb) })
	b.Run("decode/heartbeat", func(b *testing.B) { decode(b, hb) })
	b.Run("encode/chunk", func(b *testing.B) { encode(b, ck) })
	b.Run("decode/chunk", func(b *testing.B) { decode(b, ck) })
	b.Run("gob-baseline/heartbeat", func(b *testing.B) { gobEncode(b, hb) })
	b.Run("gob-baseline/chunk", func(b *testing.B) { gobEncode(b, ck) })
}
