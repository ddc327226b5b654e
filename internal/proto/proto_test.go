package proto

import (
	"strings"
	"testing"

	"repro/internal/env"
)

func TestQualifies(t *testing.T) {
	q := QualifyThresholds{MinSpeedWU: 4, MinBandwidthKbps: 1000, MinUptimeSec: 1800}
	cases := []struct {
		info PeerInfo
		want bool
	}{
		{PeerInfo{SpeedWU: 4, BandwidthKbps: 1000, UptimeSec: 1800}, true},
		{PeerInfo{SpeedWU: 10, BandwidthKbps: 9999, UptimeSec: 9999}, true},
		{PeerInfo{SpeedWU: 3.9, BandwidthKbps: 1000, UptimeSec: 1800}, false},
		{PeerInfo{SpeedWU: 4, BandwidthKbps: 999, UptimeSec: 1800}, false},
		{PeerInfo{SpeedWU: 4, BandwidthKbps: 1000, UptimeSec: 1799}, false},
	}
	for i, c := range cases {
		if got := c.info.Qualifies(q); got != c.want {
			t.Errorf("case %d: Qualifies = %v, want %v", i, got, c.want)
		}
	}
}

func TestScoreMonotone(t *testing.T) {
	a := PeerInfo{SpeedWU: 4, BandwidthKbps: 1000, UptimeSec: 1800}
	b := a
	b.SpeedWU = 8
	if b.Score() <= a.Score() {
		t.Fatal("more speed should raise the score")
	}
	c := a
	c.BandwidthKbps = 4000
	if c.Score() <= a.Score() {
		t.Fatal("more bandwidth should raise the score")
	}
	d := a
	d.UptimeSec = 7200
	if d.Score() <= a.Score() {
		t.Fatal("more uptime should raise the score")
	}
}

func TestSessionDescHelpers(t *testing.T) {
	d := SessionDesc{
		TaskID:     "t1",
		SourcePeer: 2,
		Origin:     7,
		Stages: []StageDesc{
			{Peer: 3}, {Peer: 4},
		},
	}
	peers := d.PipelinePeers()
	want := []env.NodeID{2, 3, 4, 7}
	if len(peers) != len(want) {
		t.Fatalf("peers = %v", peers)
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peers = %v, want %v", peers, want)
		}
	}
	for _, id := range want {
		if !d.UsesPeer(id) {
			t.Fatalf("UsesPeer(%d) = false", id)
		}
	}
	if d.UsesPeer(99) {
		t.Fatal("UsesPeer(99) = true")
	}
	if s := d.String(); !strings.Contains(s, "t1") || !strings.Contains(s, "stages=2") {
		t.Fatalf("String = %q", s)
	}
}

func TestChunkSized(t *testing.T) {
	c := Chunk{SizeKBv: 12.5}
	var sized env.Sized = c
	if sized.SizeKB() != 12.5 {
		t.Fatalf("SizeKB = %v", sized.SizeKB())
	}
}
