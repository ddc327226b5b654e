package replay_test

// End-to-end flight-recorder tests: record a real chaos run — two live
// runtimes over TCP, supervised connections, an active fault injector
// severing the RM mid-run — then replay both logs under the
// deterministic scheduler and demand a byte-equivalent re-execution.
// These are the acceptance tests for the subsystem; the white-box unit
// tests live in run_test.go / log_test.go.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/replay"
	"repro/internal/rng"
	"repro/internal/sim"
)

// chaosConfig mirrors internal/live's chaos test tuning: fast heartbeats
// so a severed RM is detected within milliseconds, gossip and adaptation
// off to keep the run short.
func chaosConfig() p2prm.Config {
	cfg := p2prm.DefaultConfig()
	cfg.HeartbeatPeriod = 30 * sim.Millisecond
	cfg.HeartbeatMisses = 3
	cfg.ProfilePeriod = 50 * sim.Millisecond
	cfg.BackupSyncPeriod = 60 * sim.Millisecond
	cfg.GossipPeriod = 0
	cfg.AdaptPeriod = 0
	return cfg
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

// fastTransport mirrors the live package's test transport tuning.
func fastTransport() p2prm.TransportConfig {
	return p2prm.TransportConfig{
		DialTimeout:      500 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       20 * time.Millisecond,
		CircuitThreshold: 3,
		CircuitCooldown:  20 * time.Millisecond,
	}
}

// replayedClean replays dir and fails the test on any divergence or
// trace mismatch, returning the result for further assertions.
func replayedClean(t *testing.T, cfg p2prm.Config, dir, label string) *p2prm.ReplayResult {
	t.Helper()
	res, diff, err := p2prm.ReplayRecording(cfg, dir)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	if res.Diverged != nil {
		t.Fatalf("%s: replay diverged: %s", label, res.Diverged)
	}
	if diff != nil {
		t.Fatalf("%s: trace mismatch: %s", label, diff)
	}
	if res.Truncated {
		t.Fatalf("%s: log truncated after a clean Close", label)
	}
	return res
}

// TestReplayChaosRoundTrip is the round-trip property: a recorded live
// run across two TCP-joined runtimes — including an active fault
// injector severing the RM and a task submission — replays with zero
// divergence and an identical trace stream on both sides.
func TestReplayChaosRoundTrip(t *testing.T) {
	cfg := chaosConfig()
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")

	mk := func() p2prm.PeerInfo {
		return p2prm.PeerInfo{SpeedWU: 50, BandwidthKbps: 10000, UptimeSec: 7200}
	}
	lA, err := p2prm.NewLive(cfg, p2prm.LiveOptions{
		Seed: 60, Listen: "127.0.0.1:0", Transport: fastTransport(), RecordDir: dirA,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lA.Close()
	lB, err := p2prm.NewLive(cfg, p2prm.LiveOptions{
		Seed: 61, Listen: "127.0.0.1:0", Transport: fastTransport(), RecordDir: dirB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lB.Close()

	// The founder (and so the RM) lives on runtime A; both candidate
	// backups live on runtime B and bootstrap through TCP.
	lA.Register(1, lB.ListenAddr())
	lA.Register(2, lB.ListenAddr())
	lB.Register(0, lA.ListenAddr())
	lA.StartPeerWithID(0, mk(), p2prm.NoNode)
	lB.StartPeerWithID(1, mk(), 0)
	lB.StartPeerWithID(2, mk(), 0)

	waitFor(t, 10*time.Second, func() bool {
		return lA.Joined(0) && lB.Joined(1) && lB.Joined(2)
	})

	// Let the backup get at least one state sync, then cut every link
	// touching the RM — on both runtimes, so neither direction survives.
	time.Sleep(250 * time.Millisecond)
	lA.Sever(0, p2prm.NoNode)
	lB.Sever(0, p2prm.NoNode)
	waitFor(t, 10*time.Second, func() bool { return lB.IsRM(1) || lB.IsRM(2) })

	// A submission through the recorded CallNamed path. The peers host no
	// objects, so the new RM rejects it — deterministically.
	if id := lB.Submit(1, stdReplaySpec(1)); id == "" {
		t.Fatal("submit returned no task ID")
	}
	waitFor(t, 5*time.Second, func() bool { return lB.Events().Rejected > 0 })

	lA.Close()
	lB.Close()

	stA := lA.RecordStatus()
	if stA.Recording {
		t.Fatal("still recording after Close")
	}

	resA := replayedClean(t, cfg, dirA, "runtime A")
	resB := replayedClean(t, cfg, dirB, "runtime B")
	if resA.Nodes != 1 || resB.Nodes != 2 {
		t.Fatalf("replayed nodes = %d/%d, want 1/2", resA.Nodes, resB.Nodes)
	}
	if resB.Events < 20 {
		t.Fatalf("suspiciously small log for runtime B: %d events", resB.Events)
	}
	if resA.Faults == 0 {
		t.Fatal("no fault-injector decisions recorded on the severed runtime")
	}
}

// stdReplaySpec is a feasible-looking request for an object nobody has.
func stdReplaySpec(origin p2prm.NodeID) p2prm.TaskSpec {
	return p2prm.TaskSpec{
		Origin:     origin,
		ObjectName: "missing-object",
		Constraint: p2prm.Constraint{
			Codecs:         []p2prm.Codec{p2prm.MPEG4},
			MaxWidth:       640,
			MaxHeight:      480,
			MaxBitrateKbps: 64,
		},
		DeadlineMicros: 2_000_000,
		DurationSec:    10,
		ChunkSec:       1,
	}
}

// recordShortRun records a single-runtime three-peer run and returns its
// directory.
func recordShortRun(t *testing.T, cfg p2prm.Config) string {
	t.Helper()
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
	// Let a few heartbeat/profile timers fire so the log carries timer
	// events (their deadlines are what a wrong-config replay trips on).
	time.Sleep(200 * time.Millisecond)
	l.Close()
	return dir
}

// TestReplayCorruptedLogReportsNotPanics flips a byte mid-log and checks
// the replay surfaces a typed corruption report — frame index and byte
// offset — instead of panicking or silently succeeding.
func TestReplayCorruptedLogReportsNotPanics(t *testing.T) {
	cfg := chaosConfig()
	dir := recordShortRun(t, cfg)

	path := filepath.Join(dir, replay.EventsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 200 {
		t.Fatalf("log too small to corrupt meaningfully: %d bytes", len(raw))
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = p2prm.ReplayRecording(cfg, dir)
	var ce *replay.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupted log: got %v, want a CorruptError", err)
	}
	if ce.Index <= 0 || ce.Offset <= 0 {
		t.Fatalf("corruption report missing location: %+v", ce)
	}
}

// TestReplayWrongConfigDiverges replays a recording under a different
// protocol configuration: the first re-registered timer deadline no
// longer matches the log, and the divergence names the node, logical
// time and event index.
func TestReplayWrongConfigDiverges(t *testing.T) {
	cfg := chaosConfig()
	dir := recordShortRun(t, cfg)

	bad := cfg
	bad.HeartbeatPeriod = cfg.HeartbeatPeriod * 2
	res, _, err := p2prm.ReplayRecording(bad, dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Diverged == nil {
		t.Fatal("replay under a different config did not diverge")
	}
	if res.Diverged.Index < 0 || res.Diverged.Time < 0 {
		t.Fatalf("divergence lacks a location: %+v", res.Diverged)
	}
	t.Logf("divergence (expected): %s", res.Diverged)
}

// stopRecordRuns numbers the runs of TestReplayStopRecordMidRun, so each
// of a -count=N batch draws its own cut instants from a fixed seed.
var stopRecordRuns atomic.Uint64

// TestReplayStopRecordMidRun is the recording-cut property: recording
// stops at a random instant while two TCP-joined runtimes exchange
// heartbeats, profiles, backup syncs and a steady stream of
// submissions, and both logs (and the traces taken at the cut) still
// replay without divergence. A cut that kept a handler's input but lost
// its later sends would replay as an extra send. Run it repeatedly to
// search for such a cut:
//
//	go test -race -count=50 -run TestReplayStopRecordMidRun ./internal/replay/
func TestReplayStopRecordMidRun(t *testing.T) {
	seed := 29 + stopRecordRuns.Add(1)
	r := rng.New(seed)
	// Fast periods keep the node loops busy, so a cut often lands while
	// a handler runs; the long miss budget keeps a loaded -race run from
	// suspecting the RM, which is not what this test is about.
	cfg := chaosConfig()
	cfg.HeartbeatPeriod = 5 * sim.Millisecond
	cfg.HeartbeatMisses = 40
	cfg.ProfilePeriod = 5 * sim.Millisecond
	cfg.BackupSyncPeriod = 10 * sim.Millisecond
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")

	mk := func() p2prm.PeerInfo {
		return p2prm.PeerInfo{SpeedWU: 50, BandwidthKbps: 10000, UptimeSec: 7200}
	}
	lA, err := p2prm.NewLive(cfg, p2prm.LiveOptions{
		Seed: 70, Listen: "127.0.0.1:0", Transport: fastTransport(), RecordDir: dirA,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lA.Close()
	lB, err := p2prm.NewLive(cfg, p2prm.LiveOptions{
		Seed: 71, Listen: "127.0.0.1:0", Transport: fastTransport(), RecordDir: dirB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lB.Close()

	// The RM lives on runtime A; six members live on runtime B.
	const members = 6
	for id := p2prm.NodeID(1); id <= members; id++ {
		lA.Register(id, lB.ListenAddr())
	}
	lB.Register(0, lA.ListenAddr())
	lA.StartPeerWithID(0, mk(), p2prm.NoNode)
	for id := p2prm.NodeID(1); id <= members; id++ {
		lB.StartPeerWithID(id, mk(), 0)
	}
	waitFor(t, 10*time.Second, func() bool {
		for id := p2prm.NodeID(1); id <= members; id++ {
			if !lB.Joined(id) {
				return false
			}
		}
		return lA.Joined(0)
	})

	// Submissions keep session traffic and trace events flowing across
	// both cuts; the RM rejects each (no peer hosts the object).
	stop := make(chan struct{})
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			origin := p2prm.NodeID(1 + i%members)
			lB.Submit(origin, stdReplaySpec(origin))
		}
	}()
	stopSubmits := sync.OnceFunc(func() { close(stop); <-submitted })
	defer stopSubmits()

	// Each runtime stops recording at its own instant in the next 300 ms.
	cutA := time.Duration(r.Intn(300)) * time.Millisecond
	cutB := time.Duration(r.Intn(300)) * time.Millisecond
	t.Logf("seed %d: cut A at +%v, cut B at +%v", seed, cutA, cutB)
	stopped := make(chan error, 2)
	for _, c := range []struct {
		l   *p2prm.Live
		cut time.Duration
	}{{lA, cutA}, {lB, cutB}} {
		time.AfterFunc(c.cut, func() { stopped <- c.l.StopRecord() })
	}
	for i := 0; i < 2; i++ {
		if err := <-stopped; err != nil {
			t.Fatalf("StopRecord: %v", err)
		}
	}
	stopSubmits()
	if lA.RecordStatus().Recording || lB.RecordStatus().Recording {
		t.Fatal("still recording after StopRecord")
	}

	resA := replayedClean(t, cfg, dirA, "runtime A")
	resB := replayedClean(t, cfg, dirB, "runtime B")
	t.Logf("replayed %d/%d events, %d/%d sends", resA.Events, resB.Events, resA.Sends, resB.Sends)
	if resA.Nodes != 1 || resB.Nodes != members {
		t.Fatalf("replayed nodes = %d/%d, want 1/%d", resA.Nodes, resB.Nodes, members)
	}
	for _, dir := range []string{dirA, dirB} {
		if meta, err := replay.ReadMeta(dir); err != nil || meta.Dropped != 0 {
			t.Fatalf("%s: meta %+v, err %v: want no dropped events", dir, meta, err)
		}
	}
}
