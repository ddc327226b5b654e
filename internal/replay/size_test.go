package replay_test

// Flight-recorder payload encoding on a real run: every delivery two
// live peers exchange is a protocol message, so every recorded payload
// must be a standalone codec blob and the log must replay cleanly. This
// guards against a protocol message slipping out of the codec's message
// set and degrading to a type-name-only marker.

import (
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/replay"
)

func TestRecorderCompactPayloadsShrinkLog(t *testing.T) {
	cfg := chaosConfig()
	dir := filepath.Join(t.TempDir(), "rec")
	l, err := p2prm.NewLive(cfg, p2prm.LiveOptions{Seed: 7, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mk := func() p2prm.PeerInfo {
		return p2prm.PeerInfo{SpeedWU: 50, BandwidthKbps: 10000, UptimeSec: 7200}
	}
	f := l.StartFounder(mk())
	p1 := l.StartPeer(mk(), f)
	waitFor(t, 10*time.Second, func() bool { return l.Joined(f) && l.Joined(p1) })
	// Let heartbeat, profile and backup-sync traffic accumulate so the
	// log is dominated by message payloads, not startup events.
	time.Sleep(400 * time.Millisecond)
	l.Close()

	lg, err := replay.ReadLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	delivers, payload := 0, 0
	kinds := make(map[string]int)
	for i, e := range lg.Events {
		if e.Kind != replay.KDeliver {
			continue
		}
		if e.Aux != 2 {
			t.Fatalf("event %d: %s delivery recorded with Aux=%d, want 2 (codec blob)", i, e.Name, e.Aux)
		}
		if _, err := e.Message(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		delivers++
		payload += len(e.Data)
		kinds[e.Name]++
	}
	if delivers == 0 {
		t.Fatal("recording carries no deliveries")
	}
	t.Logf("%d deliveries, %.1f payload bytes/delivery, by type: %v",
		delivers, float64(payload)/float64(delivers), kinds)
	replayedClean(t, cfg, dir, "two-peer recording")
}
