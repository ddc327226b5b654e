// Package node implements the protocol logic of one overlay peer — the
// paper's core system (§2–§4). Every peer runs the same Actor; a peer
// additionally carries Resource-Manager state while it holds that role
// (the RM "is selected among regular peers", §2).
//
// The actor is runtime-agnostic (see internal/env): experiments run it on
// the deterministic netsim substrate, the live middleware runs it on
// goroutines over channels or TCP.
package core

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Peer is one overlay node: Connection Manager, Profiler and Local
// Scheduler (§2), plus Resource-Manager state when elected.
type Peer struct {
	cfg    Config
	info   proto.PeerInfo
	events *Events

	ctx env.Context

	// Membership.
	bootstrap env.NodeID // first contact; NoNode founds domain 0
	domain    proto.DomainID
	rmID      env.NodeID
	backupID  env.NodeID
	contacts  []env.NodeID // fallback contacts (domain members)
	joined    bool
	joinedAt  sim.Time

	// Failure detection of the RM (peer side).
	lastRMContact    sim.Time
	awaitingAnnounce bool
	rmSilentSince    sim.Time
	joinHops         int
	rejoinTries      int
	memberTimers     bool

	// Backup role: latest replicated RM state.
	backupState *proto.DomainState

	// Local execution (Local Scheduler + Profiler, §2).
	proc *sched.Processor
	prof *profiler.Profiler
	conn *ConnManager

	// Data-plane state.
	asSource     map[string]*sourceSession
	asStage      map[string]*stageSession
	asSink       map[string]*sinkSession
	submits      map[string]sim.Time   // tasks this peer submitted -> submit time
	submitTimers map[string]env.Cancel // outcome watchdogs for own submissions

	// Resource-Manager state (nil unless this peer is an RM).
	rm *rmState

	// Inter-domain discovery backend (gossip or DHT), set at Init.
	disc Discovery

	// Completion continuations for chunk tasks on the local scheduler.
	stageDone map[sched.TaskID]func(missed bool)

	// Extraneous background workload (§4.5).
	bgRate   float64
	bgTicker env.Cancel

	// Timers.
	cancels     []env.Cancel
	nextTaskSeq int64
}

// New creates a peer actor. info describes the peer's capacity, objects
// and services; bootstrap is the node contacted to join (env.NoNode makes
// this peer found domain 0 as its first Resource Manager); events may be
// nil.
func New(cfg Config, info proto.PeerInfo, bootstrap env.NodeID, events *Events) *Peer {
	return &Peer{
		cfg:          cfg,
		info:         info,
		events:       events,
		bootstrap:    bootstrap,
		domain:       proto.NoDomain,
		rmID:         env.NoNode,
		backupID:     env.NoNode,
		asSource:     make(map[string]*sourceSession),
		asStage:      make(map[string]*stageSession),
		asSink:       make(map[string]*sinkSession),
		submits:      make(map[string]sim.Time),
		submitTimers: make(map[string]env.Cancel),
	}
}

// Info returns the peer's self-description.
func (p *Peer) Info() proto.PeerInfo { return p.info }

// Domain returns the peer's current domain (NoDomain before joining).
func (p *Peer) Domain() proto.DomainID { return p.domain }

// IsRM reports whether the peer currently holds the Resource-Manager role.
func (p *Peer) IsRM() bool { return p.rm != nil }

// RMID returns the peer's current Resource Manager.
func (p *Peer) RMID() env.NodeID { return p.rmID }

// Joined reports whether the peer is a member of a domain.
func (p *Peer) Joined() bool { return p.joined }

// nanotime returns a monotonic nanosecond reading for costing local
// computations. With no Config.Nanotime hook it derives from the
// injected clock (microseconds), which under simulation does not
// advance mid-handler — the cost reads as zero and stays deterministic.
func (p *Peer) nanotime() int64 {
	if p.cfg.Nanotime != nil {
		return p.cfg.Nanotime()
	}
	return int64(p.ctx.Now()) * 1000
}

// Processor exposes the local scheduler (tests and experiments).
func (p *Peer) Processor() *sched.Processor { return p.proc }

// Profiler exposes the local profiler.
func (p *Peer) Profiler() *profiler.Profiler { return p.prof }

// Connections exposes the connection manager.
func (p *Peer) Connections() *ConnManager { return p.conn }

// Init implements env.Actor.
func (p *Peer) Init(ctx env.Context) {
	p.ctx = ctx
	p.info.ID = ctx.Self()
	p.proc = sched.NewProcessor(ctx, p.info.SpeedWU, p.cfg.SchedPolicy)
	p.prof = profiler.New(int(ctx.Self()), p.info.SpeedWU, p.cfg.EWMAAlpha)
	p.conn = NewConnManager()
	p.joinedAt = ctx.Now()
	p.disc = newDiscovery(p)
	p.disc.Init()

	if p.bootstrap == env.NoNode {
		p.becomeFounder()
		return
	}
	p.sendJoin(p.bootstrap)
	// Retry join until accepted; a qualified peer that keeps striking out
	// (e.g. its whole domain's leadership died, or its bootstrap is gone)
	// eventually founds a replacement domain. (A network partition can
	// make both sides promote — the paper does not address partitions,
	// and neither do we beyond this self-healing.)
	p.cancels = append(p.cancels, env.Every(ctx, 2*sim.Second, 2*sim.Second, func() {
		if p.joined {
			return
		}
		p.rejoinTries++
		info := p.info
		info.UptimeSec += (p.ctx.Now() - p.joinedAt).Seconds()
		if p.rejoinTries >= 4 && info.Qualifies(p.cfg.Qualify) {
			p.ctx.Logf("self-promoting to RM after %d failed joins", p.rejoinTries)
			p.foundDomain(proto.DomainID(p.ctx.Self()), nil)
			return
		}
		p.sendJoin(p.pickContact())
	}))
}

// Stop implements env.Actor: graceful departure (§4.1 "peers may
// disconnect ... intentionally").
func (p *Peer) Stop() {
	if p.joined && !p.IsRM() && p.rmID != env.NoNode {
		p.ctx.Send(p.rmID, proto.Leave{})
	}
	for _, c := range p.cancels {
		c()
	}
	if p.bgTicker != nil {
		p.bgTicker()
	}
	if p.rm != nil {
		p.rm.stopTimers()
	}
	if p.disc != nil {
		p.disc.Stop()
	}
}

// sendJoin opens (or retries) the join handshake.
func (p *Peer) sendJoin(target env.NodeID) {
	if target == env.NoNode {
		return
	}
	info := p.info
	info.UptimeSec += (p.ctx.Now() - p.joinedAt).Seconds()
	p.ctx.Send(target, proto.Join{Info: info, Hops: p.joinHops})
}

// pickContact returns someone to (re)try joining through.
func (p *Peer) pickContact() env.NodeID {
	if len(p.contacts) > 0 {
		return p.contacts[p.ctx.Rand().Intn(len(p.contacts))]
	}
	return p.bootstrap
}

// startMemberTimers arms the tickers every domain member runs. It is
// idempotent: a member that self-promotes to RM already runs them.
func (p *Peer) startMemberTimers() {
	if p.memberTimers {
		return
	}
	p.memberTimers = true
	// Intra-domain load propagation (§4.4).
	p.cancels = append(p.cancels, env.Every(p.ctx, p.cfg.ProfilePeriod, p.cfg.ProfilePeriod, p.sendProfile))
	// RM liveness watch.
	period := p.cfg.HeartbeatPeriod
	p.cancels = append(p.cancels, env.Every(p.ctx, period, period, p.checkRMAlive))
}

// sendProfile propagates the profiler snapshot to the RM.
func (p *Peer) sendProfile() {
	if !p.joined || p.IsRM() || p.rmID == env.NoNode {
		return
	}
	p.ctx.Send(p.rmID, proto.ProfileUpdate{Report: p.prof.Snapshot(p.ctx.Now())})
}

// checkRMAlive detects a silent Resource Manager (§4.1: "the backup
// Resource Manager senses the withdrawn connection").
func (p *Peer) checkRMAlive() {
	if !p.joined || p.IsRM() {
		return
	}
	silent := p.ctx.Now() - p.lastRMContact
	timeout := p.cfg.HeartbeatPeriod * sim.Time(p.cfg.HeartbeatMisses)
	if silent <= timeout {
		p.awaitingAnnounce = false
		return
	}
	if p.ctx.Self() == p.backupID && p.backupState != nil {
		// I am the backup: take over using the replicated state.
		p.takeover()
		return
	}
	if !p.awaitingAnnounce {
		p.awaitingAnnounce = true
		p.rmSilentSince = p.ctx.Now()
		return
	}
	// Waited a full extra timeout for a TakeoverAnnounce; rejoin.
	if p.ctx.Now()-p.rmSilentSince > 2*timeout {
		p.joined = false
		p.awaitingAnnounce = false
		p.rmID = env.NoNode
		// The retry ticker keeps re-sending Joins and escalates to
		// self-promotion if nothing answers (see Init).
		p.sendJoin(p.pickContact())
	}
}

// Receive implements env.Actor: single dispatch point for all protocol
// messages.
func (p *Peer) Receive(from env.NodeID, m env.Message) {
	// Any traffic from the current RM counts as liveness.
	if from == p.rmID {
		p.lastRMContact = p.ctx.Now()
	}
	// Discovery traffic first: gossip exchanges or DHT RPCs, depending on
	// the configured backend.
	if p.disc.HandleMessage(from, m) {
		return
	}
	switch msg := m.(type) {
	// --- membership, peer side ---
	case proto.JoinRedirect:
		if !p.joined {
			p.joinHops++
			p.sendJoin(msg.Target)
		}
	case proto.JoinAccept:
		p.handleJoinAccept(from, msg)
	case proto.BecomeRM:
		if !p.joined {
			p.foundDomain(msg.NewDomain, msg.KnownRMs)
		}
	case proto.HeartbeatReq:
		if from == p.rmID {
			p.ctx.Send(from, proto.HeartbeatAck{Seq: msg.Seq})
		} else if p.joined {
			// A probe from an RM we no longer follow (we rejoined another
			// domain after its silence, or it is a stale leader): tell it
			// we left so its member table converges instead of keeping a
			// phantom entry alive through our acks.
			p.ctx.Send(from, proto.Leave{})
		}
	case proto.BackupSync:
		st := msg.State
		p.backupState = &st
	case proto.TakeoverAnnounce:
		p.handleTakeoverAnnounce(from, msg)
	case proto.TaskReject:
		p.adoptTC(msg.TaskID, msg.TC)
		p.rejectOwn(msg.TaskID, "rejected", msg.Reason)

	// --- data plane ---
	case proto.GraphCompose:
		p.handleCompose(from, msg)
	case proto.SessionStart:
		p.handleSessionStart(msg)
	case proto.Chunk:
		p.handleChunk(from, msg)
	case proto.SessionAbort:
		p.handleSessionAbort(msg)

	// --- Resource-Manager side ---
	case proto.Join:
		p.rmHandleJoin(from, msg)
	case proto.Leave:
		p.rmHandleLeave(from)
	case proto.HeartbeatAck:
		p.rmHandleHeartbeatAck(from, msg)
	case proto.ProfileUpdate:
		p.rmHandleProfile(from, msg)
	case proto.TaskSubmit:
		p.rmHandleSubmit(from, msg)
	case proto.ComposeAck:
		p.rmHandleComposeAck(from, msg)
	case proto.SessionEnd:
		p.rmHandleSessionEnd(from, msg)
	}
}

// handleJoinAccept completes the join handshake.
func (p *Peer) handleJoinAccept(from env.NodeID, msg proto.JoinAccept) {
	if p.joined {
		return
	}
	p.joined = true
	p.joinHops = 0
	p.rejoinTries = 0
	p.domain = msg.Domain
	p.rmID = msg.RM
	p.backupID = msg.Backup
	p.contacts = msg.Peers
	p.lastRMContact = p.ctx.Now()
	p.conn.Open(msg.RM)
	p.disc.NoteContacts(append([]env.NodeID{msg.RM, msg.Backup}, msg.Peers...)...)
	p.startMemberTimers()
	p.ctx.Logf("joined domain %d under RM n%d", msg.Domain, msg.RM)
}

// handleTakeoverAnnounce follows a backup's promotion.
func (p *Peer) handleTakeoverAnnounce(from env.NodeID, msg proto.TakeoverAnnounce) {
	if msg.Domain != p.domain && p.domain != proto.NoDomain {
		// Another domain's failover: only relevant to RM gossip state.
		if p.rm != nil {
			p.rm.noteRM(proto.RMRef{Domain: msg.Domain, RM: msg.NewRM})
		}
		return
	}
	p.conn.Close(p.rmID)
	p.rmID = msg.NewRM
	p.backupID = msg.Backup
	p.lastRMContact = p.ctx.Now()
	p.awaitingAnnounce = false
	p.conn.Open(msg.NewRM)
}

// resolveSubmit clears a pending submission's bookkeeping.
func (p *Peer) resolveSubmit(taskID string) {
	delete(p.submits, taskID)
	if cancel, ok := p.submitTimers[taskID]; ok {
		cancel()
		delete(p.submitTimers, taskID)
	}
}

// rejectOwn resolves one of this peer's pending submissions as rejected,
// ending its trace span with the given outcome (and reason, if any).
// Every path that gives up on an own submission comes through here, so
// each counts exactly once.
func (p *Peer) rejectOwn(taskID, outcome, reason string) {
	if _, mine := p.submits[taskID]; !mine {
		return
	}
	p.resolveSubmit(taskID)
	p.events.emit(fact{kind: kindRejected, domain: p.domain})
	if tr := p.events.Tracer(); tr != nil {
		var attrs []trace.Attr
		if reason != "" {
			attrs = append(attrs, trace.A("reason", reason))
		}
		tr.EndSession(int64(p.ctx.Now()), taskID, int(p.ctx.Self()), int(p.domain), outcome, attrs...)
	}
}

// submitAccepted reports whether our own submission has been composed to
// us as a sink (its outcome will arrive as a session report).
func (p *Peer) submitAccepted(taskID string) bool {
	_, ok := p.asSink[taskID]
	return ok
}

// SetBackgroundLoad models extraneous local workload (§4.5: "overload
// conditions could also be caused by extraneous workload or network
// traffic"): rate work-units/s consumed by non-middleware activity. The
// load occupies the local scheduler (competing with transcode chunks) and
// appears in profiler reports — so the Resource Manager only learns about
// it through the periodic updates, which is exactly the staleness the E10
// experiment measures.
func (p *Peer) SetBackgroundLoad(rate float64) {
	if rate < 0 {
		rate = 0
	}
	p.prof.AddLoad(rate - p.bgRate)
	p.bgRate = rate
	if p.bgTicker != nil {
		p.bgTicker()
		p.bgTicker = nil
	}
	if rate <= 0 {
		return
	}
	const slice = 200 * sim.Millisecond
	p.bgTicker = env.Every(p.ctx, slice, slice, func() {
		p.nextTaskSeq++
		p.proc.Add(&sched.Task{
			ID:       sched.TaskID(p.nextTaskSeq),
			Deadline: p.ctx.Now() + 2*slice,
			Work:     p.bgRate * slice.Seconds(),
		})
	})
}

// BackgroundLoad returns the current extraneous load rate.
func (p *Peer) BackgroundLoad() float64 { return p.bgRate }

// SubmitTask issues a user query from this peer (§4.3: "a user at a peer
// submits a query to the resource manager of its domain"). It returns the
// assigned task ID.
func (p *Peer) SubmitTask(spec proto.TaskSpec) string {
	p.nextTaskSeq++
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("t%d.%d", p.ctx.Self(), p.nextTaskSeq)
	}
	spec.Origin = p.ctx.Self()
	if spec.ChunkSec <= 0 {
		spec.ChunkSec = p.cfg.DefaultChunkSec
	}
	p.submits[spec.ID] = p.ctx.Now()
	p.events.emit(fact{kind: kindSubmitted, domain: p.domain})
	if tr := p.events.Tracer(); tr != nil {
		tr.BeginSession(int64(p.ctx.Now()), spec.ID, int(p.ctx.Self()), int(p.domain),
			trace.A("object", spec.ObjectName), trace.A("importance", spec.Importance),
			trace.A("deadline_micros", spec.DeadlineMicros))
	}
	// Outcome watchdog: if neither an admission (our sink role composes)
	// nor a rejection arrives — e.g. the RM crashed while holding the
	// query, or a redirect landed on a stale address — the submission
	// times out locally as rejected, so no query ever silently vanishes.
	taskID := spec.ID
	wait := sim.Time(spec.DeadlineMicros)*2 + 10*sim.Second
	p.submitTimers[taskID] = p.ctx.After(wait, func() {
		if !p.submitAccepted(taskID) {
			p.rejectOwn(taskID, "timeout", "")
		}
	})
	target := p.rmID
	if p.IsRM() {
		target = p.ctx.Self()
	}
	if target == env.NoNode {
		p.rejectOwn(spec.ID, "rejected", "no resource manager")
		return spec.ID
	}
	submit := proto.TaskSubmit{Spec: spec, TC: p.traceCtx(spec.ID, "submit")}
	if target == p.ctx.Self() {
		// RM submitting to itself: handle directly.
		p.rmHandleSubmit(p.ctx.Self(), submit)
	} else {
		p.ctx.Send(target, submit)
	}
	return spec.ID
}
