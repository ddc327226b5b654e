package proto

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/profiler"
)

func sampleFormat(codec media.Codec, w int) media.Format {
	return media.Format{Codec: codec, Width: w, Height: w * 3 / 4, BitrateKbps: 512}
}

func samplePeerInfo() PeerInfo {
	return PeerInfo{
		ID:            7,
		SpeedWU:       50.5,
		BandwidthKbps: 10000,
		UptimeSec:     7200.25,
		Objects: []media.Object{
			{Name: "movie-42", Format: sampleFormat(media.MPEG2, 800), Hash: 0xdeadbeefcafe, Bytes: 1 << 30},
		},
		Services: []media.Transcoder{
			{From: sampleFormat(media.MPEG2, 800), To: sampleFormat(media.MPEG4, 640)},
		},
	}
}

func sampleSession() SessionDesc {
	return SessionDesc{
		TaskID:     "task-17",
		RM:         0,
		Origin:     9,
		SourcePeer: 4,
		Stages: []StageDesc{
			{Peer: 5, Service: "MPEG-2 800x600@512Kbps->MPEG-4 640x480@64Kbps", Work: 1.75, InBitrateKbps: 512, OutBitrateKbps: 64},
			{Peer: 6, Service: "s2", Work: 0.5, InBitrateKbps: 64, OutBitrateKbps: 32},
		},
		ObjectName:        "movie-42",
		SourceBitrateKbps: 512,
		ChunkSec:          1.5,
		NumChunks:         40,
		StartupDeadline:   2_000_000,
		PlaybackBase:      123_456_789,
		StartChunk:        3,
		Importance:        2,
		Generation:        1,
		TC:                TraceContext{Trace: 0x1122334455667788, Parent: 42},
	}
}

// codecSamples covers every kind tag with rich field values, including
// negative node IDs, empty and populated slices, multi-key maps and
// non-zero trace contexts.
func codecSamples() []env.Message {
	return []env.Message{
		Join{Info: samplePeerInfo(), Hops: 3},
		Join{Info: PeerInfo{ID: env.NoNode}, Hops: 0},
		JoinRedirect{Target: 12, Reason: "try the RM"},
		JoinAccept{Domain: 2, RM: 5, Backup: env.NoNode, Peers: []env.NodeID{1, 2, 3}},
		JoinAccept{Domain: 0, RM: 0, Backup: 0},
		BecomeRM{NewDomain: 9, KnownRMs: []RMRef{{Domain: 0, RM: 0}, {Domain: 9, RM: 9}}},
		Leave{},
		HeartbeatReq{Seq: 1 << 40, Backup: 3},
		HeartbeatAck{Seq: 77},
		ProfileUpdate{Report: profiler.Report{
			Peer: 4, At: 1_000_000, Load: 12.5, Utilization: 0.25, BandwidthKbps: 900,
		}},
		ProfileUpdate{Report: profiler.Report{Peer: 1}},
		BackupSync{State: DomainState{
			Domain:   1,
			Peers:    []PeerSnapshot{{Info: samplePeerInfo(), Load: 3.25}},
			Sessions: []SessionDesc{sampleSession()},
			KnownRMs: []RMRef{{Domain: 1, RM: 2}},
			Version:  19,
		}},
		TakeoverAnnounce{Domain: 1, NewRM: 2, Backup: 3},
		TaskSubmit{
			Spec: TaskSpec{
				ID: "t-1", Origin: 9, ObjectName: "movie-42",
				Constraint: media.Constraint{
					Codecs:         []media.Codec{media.MPEG4, media.H263},
					MaxWidth:       640,
					MaxHeight:      480,
					MinBitrateKbps: 32,
					MaxBitrateKbps: 64,
				},
				DeadlineMicros: 2_000_000, Importance: 1, DurationSec: 10, ChunkSec: 1,
			},
			Hops: 2,
			TC:   TraceContext{Trace: 5, Parent: 6},
		},
		TaskReject{TaskID: "t-1", Reason: "no allocation satisfies QoS", TC: TraceContext{}},
		GraphCompose{Session: sampleSession(), Role: RoleSource},
		GraphCompose{Session: SessionDesc{TaskID: "bare"}, Role: RoleSink},
		ComposeAck{TaskID: "t-1", Role: RoleSink, Generation: 2, OK: false, Reason: "at capacity"},
		ComposeAck{TaskID: "t-1", Role: 0, Generation: 0, OK: true},
		SessionStart{TaskID: "t-1", Generation: 1, TC: TraceContext{Trace: 1}},
		Chunk{TaskID: "t-1", Generation: 1, Index: 17, NextStage: 2, SizeKBv: 96.5, Deadline: 5_000_000, Emitted: 4_900_000},
		SessionAbort{TaskID: "t-1", Generation: 2, Reason: "repair", Final: true, TC: TraceContext{Parent: 9}},
		SessionEnd{Report: SessionReport{
			TaskID: "t-1", Chunks: 40, Received: 38, Missed: 2,
			StartupMicros: 120_000, MeanLatencyMicros: 420.5, Repaired: 1,
			FinishedMicros: 60_000_000, Hops: 2,
		}, TC: TraceContext{Trace: 8, Parent: 3}},
		GossipDigest{From: RMRef{Domain: 2, RM: 5}, Versions: []DomainVersion{{0, 4}, {2, 19}, {7, 1}}},
		GossipDigest{From: RMRef{Domain: 0, RM: 0}},
		GossipSummaries{
			From: RMRef{Domain: 2, RM: 5},
			Summaries: []*DomainSummary{{
				Domain: 0, RM: 0, Version: 4, NumPeers: 12, AvgUtil: 0.4,
				ObjectBloom: []byte{0xff, 0x01, 0x80}, ServiceBloom: []byte{0x10},
				BloomM: 1024, BloomK: 3,
			}},
			Want: []DomainID{3, 7},
		},
		FindNode{RPC: 1 << 50, Target: sampleKey(0x11), TC: TraceContext{Trace: 7, Parent: 2}},
		FindNode{},
		FindValue{RPC: 99, Key: sampleKey(0xfe), TC: TraceContext{Trace: 1}},
		Store{Key: sampleKey(0x42), Provider: DHTProvider{Domain: 3, RM: 14, NumPeers: 8, AvgUtil: 0.625}},
		Nodes{RPC: 5, IDs: []env.NodeID{9, 0, 3}},
		Nodes{RPC: 6},
		Providers{
			RPC: 7,
			Values: []DHTProvider{
				{Domain: 1, RM: 4, NumPeers: 2, AvgUtil: 0.25},
				{Domain: 9, RM: 9, NumPeers: 16, AvgUtil: 1},
			},
			IDs: []env.NodeID{2, 4},
		},
		Providers{RPC: 8},
	}
}

// sampleKey fills a DHTKey with a recognizable byte pattern.
func sampleKey(fill byte) DHTKey {
	var k DHTKey
	for i := range k {
		k[i] = fill ^ byte(i)
	}
	return k
}

func TestCodecRoundTrip(t *testing.T) {
	seen := make(map[byte]bool)
	for _, m := range codecSamples() {
		enc, ok := AppendMessage(nil, m)
		if !ok {
			t.Fatalf("%T not in the core set", m)
		}
		seen[enc[0]] = true
		dec, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(dec, m) {
			t.Fatalf("%T round trip mangled message:\n in: %#v\nout: %#v", m, m, dec)
		}
	}
	// The codec is the only encoding a message has, so every kind must
	// be exercised here.
	for k := byte(kindJoin); k <= kindProviders; k++ {
		if !seen[k] {
			t.Errorf("message kind %#x has no round-trip sample", k)
		}
	}
}

func TestCodecAppendPreservesPrefix(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	enc, ok := AppendMessage(append([]byte(nil), prefix...), HeartbeatAck{Seq: 9})
	if !ok {
		t.Fatal("heartbeat not encodable")
	}
	if !bytes.Equal(enc[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", enc[:4])
	}
	if _, err := DecodeMessage(enc[2:]); err != nil {
		t.Fatal(err)
	}
}

type notAProtoMessage struct{ X int }

func TestCodecRejectsUnknownType(t *testing.T) {
	buf := []byte{1, 2, 3}
	out, ok := AppendMessage(buf, notAProtoMessage{X: 4})
	if ok {
		t.Fatal("unknown type reported as encodable")
	}
	if !bytes.Equal(out, buf) {
		t.Fatalf("buffer changed on rejected encode: %x", out)
	}
}

// TestCodecTruncation decodes every strict prefix of every sample: all
// must error (never panic, never succeed on partial input).
func TestCodecTruncation(t *testing.T) {
	for _, m := range codecSamples() {
		enc, _ := AppendMessage(nil, m)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeMessage(enc[:cut]); err == nil {
				t.Fatalf("%T: decoding %d of %d bytes succeeded", m, cut, len(enc))
			}
		}
	}
}

func TestCodecTrailingBytesRejected(t *testing.T) {
	enc, _ := AppendMessage(nil, HeartbeatReq{Seq: 1, Backup: 2})
	if _, err := DecodeMessage(append(enc, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestCodecHostileCounts hands the decoder length declarations far
// beyond the actual input; it must fail cleanly without allocating what
// the attacker declared.
func TestCodecHostileCounts(t *testing.T) {
	cases := map[string][]byte{
		// JoinAccept with domain/rm/backup = 0 and a 2^60 peer count.
		"slice count": {kindJoinAccept, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10},
		// JoinRedirect with target 0 and a giant reason length.
		"string length": {kindJoinRedirect, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		// GossipDigest From(0,0) and a giant version count.
		"version count": {kindGossipDigest, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		// ComposeAck with a flag byte outside {0,1}.
		"bad flag":     {kindComposeAck, 0, 0, 0, 2, 0},
		"empty":        {},
		"unknown kind": {0x7f},
		// FindNode with RPC 0 and only 3 of the 20 key bytes.
		"short dht key": {kindFindNode, 0, 0xaa, 0xbb, 0xcc},
		// Providers with RPC 0 and a 2^60 provider count.
		"provider count": {kindProviders, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10},
	}
	for name, b := range cases {
		if _, err := DecodeMessage(b); err == nil {
			t.Fatalf("%s: hostile input decoded without error", name)
		}
	}
}

// TestCodecZeroAllocEncode pins the hot-path property: encoding into a
// buffer with capacity performs no allocations.
func TestCodecZeroAllocEncode(t *testing.T) {
	buf := make([]byte, 0, 256)
	msgs := []env.Message{
		HeartbeatReq{Seq: 9, Backup: 1},
		HeartbeatAck{Seq: 9},
		Chunk{TaskID: "t", Generation: 1, Index: 3, SizeKBv: 96, Deadline: 1, Emitted: 1},
	}
	for _, m := range msgs {
		m := m
		allocs := testing.AllocsPerRun(100, func() {
			buf = buf[:0]
			buf, _ = AppendMessage(buf, m)
		})
		if allocs != 0 {
			t.Fatalf("%T: %v allocs per encode, want 0", m, allocs)
		}
	}
}

// TestCodecDigestBytes pins a digest's wire bytes. The versions were a
// map encoded as ascending (domain, version) pairs; the canonical list
// encodes to the same bytes, so recordings and live peers on either side
// of that change read each other's digests.
func TestCodecDigestBytes(t *testing.T) {
	m := GossipDigest{From: RMRef{Domain: 2, RM: 5}, Versions: []DomainVersion{{0, 4}, {2, 19}, {7, 1}}}
	enc, ok := AppendMessage(nil, m)
	if !ok {
		t.Fatal("digest not encodable")
	}
	if got, want := hex.EncodeToString(enc), "13040a03000404130e01"; got != want {
		t.Fatalf("digest bytes = %s, want %s", got, want)
	}
}

// TestCodecDigestCanonicalOrder checks both sides of the digest's
// canonical form: encoding refuses versions that are not strictly
// ascending by domain, and decoding rejects such bytes.
func TestCodecDigestCanonicalOrder(t *testing.T) {
	for name, vs := range map[string][]DomainVersion{
		"unsorted":  {{3, 1}, {1, 1}},
		"duplicate": {{1, 1}, {4, 2}, {4, 3}},
	} {
		buf := []byte{0xaa}
		out, ok := AppendMessage(buf, GossipDigest{From: RMRef{Domain: 1, RM: 1}, Versions: vs})
		if ok || !bytes.Equal(out, buf) {
			t.Fatalf("%s digest encoded: ok=%v, %x", name, ok, out)
		}
	}
	for name, b := range nonCanonicalDigests() {
		_, err := DecodeMessage(b)
		if err == nil || !strings.Contains(err.Error(), "invalid version order") {
			t.Fatalf("%s digest: err = %v, want invalid version order", name, err)
		}
	}
}

// nonCanonicalDigests hand-encodes digests the encoder refuses to write:
// From (1, 1), then two or three (domain, version) pairs.
func nonCanonicalDigests() map[string][]byte {
	return map[string][]byte{
		"unsorted":  {kindGossipDigest, 2, 2, 2, 6, 1, 2, 1},
		"duplicate": {kindGossipDigest, 2, 2, 3, 2, 1, 8, 2, 8, 3},
	}
}
