package core_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bookConfig keeps the RM's load book free of profile reports (they
// would overwrite it with measured loads), so the book must equal the
// summed stage work of the live sessions.
func bookConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ProfilePeriod = 3600 * sim.Second
	cfg.AdaptPeriod = sim.Second
	return cfg
}

// chainDomain builds founder n0 (the RM, holding obj-0, no services), n1
// offering src->mid, n2 mid->tgt1, n3 mid->tgt2, and n4 as a bare sink.
// A task for tgt1 runs on n1+n2, one for tgt2 on n1+n3.
func chainDomain(t *testing.T, cfg core.Config) (*cluster.Cluster, proto.TaskSpec, proto.TaskSpec) {
	t.Helper()
	cat := cluster.StandardCatalog()
	src, mid, tgt1, tgt2 := cat.Sources[0], cat.Sources[1], cat.Targets[0], cat.Targets[1]
	infos := make([]proto.PeerInfo, 5)
	for i := range infos {
		infos[i] = fixedInfo()
	}
	infos[0].Objects = []media.Object{{Name: "obj-0", Format: src,
		Bytes: int64(120 * float64(src.BitrateKbps) * 1000 / 8)}}
	infos[1].Services = []media.Transcoder{{From: src, To: mid}}
	infos[2].Services = []media.Transcoder{{From: mid, To: tgt1}}
	infos[3].Services = []media.Transcoder{{From: mid, To: tgt2}}
	c := cluster.New(cfg, netCfg(), 5)
	c.AddFounder(infos[0])
	for i := 1; i < len(infos); i++ {
		c.AddPeer(infos[i], 0)
	}
	c.RunUntil(3 * sim.Second)
	spec := func(id string, f media.Format) proto.TaskSpec {
		return proto.TaskSpec{ID: id, Origin: 4, ObjectName: "obj-0",
			Constraint: media.Constraint{Codecs: []media.Codec{f.Codec},
				MaxWidth: f.Width, MaxHeight: f.Height, MaxBitrateKbps: f.BitrateKbps},
			DeadlineMicros: 3_000_000, DurationSec: 100, ChunkSec: 1}
	}
	return c, spec("to-mpeg4", tgt1), spec("to-h263", tgt2)
}

// checkBook fails unless every member's booked load equals the summed
// stage work of the RM's live sessions on it.
func checkBook(t *testing.T, rm *core.Peer, when string) {
	t.Helper()
	booked, live := rm.LoadBook()
	for id, load := range booked {
		if math.Abs(load-live[id]) > 1e-9 {
			t.Errorf("%s: n%d booked %.6f, live sessions hold %.6f", when, id, load, live[id])
		}
	}
}

// A repair that finds no substitute aborts the session; its load must
// leave the book exactly once.
func TestFailedRepairReleasesLoadOnce(t *testing.T) {
	c, mpeg4, h263 := chainDomain(t, bookConfig())
	c.Submit(c.Eng.Now(), 4, mpeg4)
	c.Submit(c.Eng.Now(), 4, h263)
	c.RunUntil(c.Eng.Now() + 5*sim.Second)
	rm := c.Peer(0)
	if got := rm.RunningSessions(); got != 2 {
		t.Fatalf("running sessions = %d, want 2", got)
	}
	checkBook(t, rm, "both running")
	// n2 is the only mid->tgt1 transcoder: the MPEG-4 session's repair
	// has no goal left and aborts, while the H.263 session keeps n1.
	c.Crash(c.Eng.Now(), 2)
	c.RunUntil(c.Eng.Now() + 5*sim.Second)
	if ids := rm.SessionIDs(); len(ids) != 1 || ids[0] != "to-h263" {
		t.Fatalf("sessions after failed repair = %v, want [to-h263]", ids)
	}
	checkBook(t, rm, "after failed repair")
}

// A migration probe searches a hypothetical view; when it fails the book
// must be exactly as the probe found it, even where the view clamped.
func TestFailedMigrationProbeLeavesBookUnchanged(t *testing.T) {
	cfg := bookConfig()
	c, _, h263 := chainDomain(t, cfg)
	c.Submit(c.Eng.Now(), 4, h263)
	c.RunUntil(c.Eng.Now() + 5*sim.Second)
	rm := c.Peer(0)
	checkBook(t, rm, "running")
	// Reports make n1 (the only src->mid transcoder) overloaded and n3
	// idle, below the session's own work there, so the probe's view of
	// n3 clamps at zero. No migration can avoid n1.
	now := c.Eng.Now()
	rm.Receive(1, proto.ProfileUpdate{Report: profiler.Report{Peer: 1, At: now, Load: 20}})
	rm.Receive(3, proto.ProfileUpdate{Report: profiler.Report{Peer: 3, At: now, Load: 0}})
	before, _ := rm.LoadBook()
	c.RunUntil(c.Eng.Now() + 3*cfg.AdaptPeriod)
	if m := c.Events.Snapshot().Migrations; m != 0 {
		t.Fatalf("migrations = %d, want 0 (no pipeline avoids n1)", m)
	}
	after, _ := rm.LoadBook()
	for id, load := range before {
		if after[id] != load {
			t.Errorf("n%d: booked %.6f before the failed probe, %.6f after", id, load, after[id])
		}
	}
}

// failoverWithSession builds a five-peer domain — n0 the RM with neither
// objects nor services, n1 holding the object, n2 and n3 both offering the
// whole ladder, n4 the sink — admits one session of the given length,
// crashes n0 and returns the new RM once it has inherited the session.
func failoverWithSession(t *testing.T, cfg core.Config, durationSec float64) (*cluster.Cluster, *core.Peer) {
	t.Helper()
	cfg.BackupSyncPeriod = 500 * sim.Millisecond
	cat := cluster.StandardCatalog()
	infos := make([]proto.PeerInfo, 5)
	for i := range infos {
		infos[i] = fixedInfo()
	}
	infos[1].Objects = []media.Object{{Name: "obj-0", Format: cat.Sources[0],
		Bytes: int64(60 * float64(cat.Sources[0].BitrateKbps) * 1000 / 8)}}
	infos[2].Services = append([]media.Transcoder(nil), cat.Ladder...)
	infos[3].Services = append([]media.Transcoder(nil), cat.Ladder...)
	c := cluster.New(cfg, netCfg(), 9)
	c.Events.AttachTracer(trace.New())
	c.AddFounder(infos[0])
	for i := 1; i < len(infos); i++ {
		c.AddPeer(infos[i], 0)
	}
	c.RunUntil(3 * sim.Second)
	spec := stdSpec(4)
	spec.DurationSec = durationSec
	c.Submit(c.Eng.Now(), 4, spec)
	c.RunUntil(c.Eng.Now() + 5*sim.Second)
	backup := c.Peer(0).Backup()
	c.Crash(c.Eng.Now(), 0)
	c.RunUntil(c.Eng.Now() + 10*sim.Second)
	if rms := c.RMs(); len(rms) != 1 || rms[0] != backup {
		t.Fatalf("RMs after failover = %v, want [n%d]", rms, backup)
	}
	if got := c.Peer(backup).RunningSessions(); got != 1 {
		t.Fatalf("new RM inherited %d sessions, want 1", got)
	}
	return c, c.Peer(backup)
}

// Sessions inherited through failover carry their goal and deadline in
// the replicated descriptor, so the new RM can repair them.
func TestInheritedSessionIsRepairable(t *testing.T) {
	c, rm := failoverWithSession(t, core.DefaultConfig(), 60)
	// Crash a transcoding stage of the inherited session.
	stage := env.NoNode
	for _, id := range []env.NodeID{2, 3} {
		if c.Peer(id) != rm && c.Peer(id).Profiler().Load() > 0 {
			stage = id
		}
	}
	if stage == env.NoNode {
		t.Fatal("no loaded stage peer outside the new RM")
	}
	c.Crash(c.Eng.Now(), stage)
	c.RunUntil(c.Eng.Now() + 90*sim.Second)
	ev := c.Events.Snapshot()
	if ev.Repairs < 1 {
		t.Fatalf("repairs = %d, want >= 1", ev.Repairs)
	}
	if len(ev.Reports) != 1 || ev.Reports[0].Repaired == 0 {
		t.Fatalf("reports = %+v, want one with Repaired > 0", ev.Reports)
	}
	for _, e := range c.Events.Tracer().Snapshot() {
		if e.Name == "abort" && e.Args["reason"] == "graph-state-lost" {
			t.Fatalf("inherited session aborted with graph-state-lost at %d", e.TS)
		}
	}
}

// A submission on a peer with no Resource Manager is rejected at once,
// and its outcome watchdog must not count it a second time.
func TestSubmitWithoutRMRejectedOnce(t *testing.T) {
	c := cluster.New(core.DefaultConfig(), netCfg(), 3)
	c.AddFounder(fixedInfo())
	lone := c.AddPeer(fixedInfo(), 0)
	c.Crash(0, 0) // the bootstrap is gone before the join arrives
	spec := stdSpec(lone)
	c.Submit(sim.Second, lone, spec)
	c.RunUntil(sim.Second + 2*sim.Time(spec.DeadlineMicros) + 20*sim.Second)
	ev := c.Events.Snapshot()
	if ev.Submitted != 1 || ev.Rejected != 1 {
		t.Fatalf("submitted=%d rejected=%d, want 1 and 1", ev.Submitted, ev.Rejected)
	}
}

// A recompose that reaches the sink after its task has reported (the
// SessionEnd went to an RM that has since failed, or is still in flight)
// must be refused, not opened as a second outcome.
func TestSinkRefusesRecomposeOfResolvedTask(t *testing.T) {
	c := smallDomain(t, 4, core.DefaultConfig())
	spec := stdSpec(3)
	spec.ID = "done"
	spec.DurationSec = 3
	c.Submit(c.Eng.Now(), 3, spec)
	c.RunUntil(c.Eng.Now() + 20*sim.Second)
	if n := len(c.Events.Snapshot().Reports); n != 1 {
		t.Fatalf("reports = %d, want 1", n)
	}
	now := c.Eng.Now()
	late := proto.SessionDesc{TaskID: "done", RM: 0, Origin: 3, SourcePeer: 0, ObjectName: "obj-0",
		ChunkSec: 1, NumChunks: 3, StartupDeadline: 2 * sim.Second, PlaybackBase: now, Generation: 1}
	c.Peer(3).Receive(0, proto.GraphCompose{Session: late, Role: proto.RoleSink})
	c.RunUntil(c.Eng.Now() + 20*sim.Second)
	if n := len(c.Events.Snapshot().Reports); n != 1 {
		t.Fatalf("reports = %d after a late recompose, want 1", n)
	}
	if got := c.Peer(3).ActiveSinkSessions(); len(got) != 0 {
		t.Fatalf("sink still holds %v", got)
	}
}

// A session inherited at takeover whose SessionEnd went to the failed RM
// is retired by the new RM once its span has passed, so its booked load
// does not stay on the stage peers as phantom load.
func TestInheritedSessionRetiredAfterSpan(t *testing.T) {
	c, rm := failoverWithSession(t, bookConfig(), 20)
	// Past the session's span, one compose timeout and a backup-sync pass.
	c.RunUntil(c.Eng.Now() + 25*sim.Second)
	if n := len(c.Events.Snapshot().Reports); n != 1 {
		t.Fatalf("reports = %d, want 1 (the sink finalised)", n)
	}
	if ids := rm.SessionIDs(); len(ids) != 0 {
		t.Fatalf("new RM still holds %v after the session's span", ids)
	}
	checkBook(t, rm, "after the span")
}

// A sink the RM removes from its domain while it still runs discards its
// session on the abort; its submission must still get an outcome.
func TestRemovedLiveSinkGetsOutcome(t *testing.T) {
	c := smallDomain(t, 4, core.DefaultConfig())
	c.Submit(c.Eng.Now(), 3, stdSpec(3))
	c.RunUntil(c.Eng.Now() + 3*sim.Second)
	c.Peer(0).Receive(3, proto.Leave{}) // n3 is still running
	c.RunUntil(c.Eng.Now() + 60*sim.Second)
	ev := c.Events.Snapshot()
	if ev.Submitted != 1 || ev.Rejected+len(ev.Reports) != 1 {
		t.Fatalf("submitted=%d rejected=%d reports=%d, want one outcome",
			ev.Submitted, ev.Rejected, len(ev.Reports))
	}
}

// A member that joined below the backup uptime threshold and re-joins
// above it becomes the backup: every join re-elects, not just the first.
func TestRejoinAboveUptimeThresholdElectsBackup(t *testing.T) {
	cfg := core.DefaultConfig()
	member := fixedInfo()
	member.UptimeSec = cfg.Qualify.MinUptimeSec / 2
	c := cluster.New(cfg, netCfg(), 2)
	c.AddFounder(fixedInfo())
	c.AddPeer(member, 0)
	c.RunUntil(3 * sim.Second)
	rm := c.Peer(0)
	if rm.DomainSize() != 2 {
		t.Fatalf("domain size = %d, want 2", rm.DomainSize())
	}
	if b := rm.Backup(); b != env.NoNode {
		t.Fatalf("backup = %d before the re-join, want none", b)
	}
	info := c.Peer(1).Info()
	info.UptimeSec = 2 * cfg.Qualify.MinUptimeSec
	rm.Receive(1, proto.Join{Info: info})
	if b := rm.Backup(); b != 1 {
		t.Fatalf("backup = %d after the re-join, want n1", b)
	}
}

// A backup that takes over does not list its own domain among the remote
// ones: the replicated RM list names the failed RM under that domain.
func TestTakeoverForgetsOwnDomain(t *testing.T) {
	_, rm := failoverWithSession(t, core.DefaultConfig(), 60)
	if n := rm.KnownDomains(); n != 0 {
		t.Fatalf("new RM of the only domain knows %d other domains, want 0", n)
	}
}

// A member's catalog change reaches the RM only through its re-join: the
// RM's record must not change before the Join is delivered, and once it
// is, the RM must rebuild its graph at the next admission rather than at
// the 5 s latency refresh.
func TestMemberCatalogReplaceReachesRMOnRejoin(t *testing.T) {
	cat := cluster.StandardCatalog()
	oldFmt, newFmt := cat.Sources[0], cat.Targets[1]
	member := fixedInfo()
	member.Objects = []media.Object{{Name: "obj-x", Format: oldFmt, Bytes: 1 << 20}}
	c := cluster.New(core.DefaultConfig(), netCfg(), 5)
	c.AddFounder(fixedInfo())
	c.AddPeer(member, 0)
	c.RunUntil(3 * sim.Second)
	rm := c.Peer(0)
	if _, has := rm.FreshGraphHas(newFmt); has {
		t.Fatalf("format %v is a vertex before any peer holds it", newFmt)
	}
	c.Peer(1).AddObject(media.Object{Name: "obj-x", Format: newFmt, Bytes: 1 << 20})
	if info, ok := rm.MemberInfo(1); !ok || len(info.Objects) != 1 || info.Objects[0].Format != oldFmt {
		t.Fatalf("RM record before the re-join is delivered: %+v, want obj-x in %v", info.Objects, oldFmt)
	}
	c.RunUntil(c.Eng.Now() + 500*sim.Millisecond)
	if info, _ := rm.MemberInfo(1); len(info.Objects) != 1 || info.Objects[0].Format != newFmt {
		t.Fatalf("RM record after the re-join: %+v, want obj-x in %v", info.Objects, newFmt)
	}
	if dirty, has := rm.FreshGraphHas(newFmt); !dirty || !has {
		t.Fatalf("after the re-join: graph dirty %v, %v a vertex %v; want both", dirty, newFmt, has)
	}
}
