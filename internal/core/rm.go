package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rmState is the Resource-Manager role state (§3.1): full knowledge of
// the domain's peers, objects, services, resource graph and running
// sessions, plus gossiped summaries of other domains.
//
// Concurrency audit: rmState carries no mutex on purpose. It is owned by
// the peer's actor loop — every read and write happens inside a Receive
// or timer callback serialized by the hosting runtime (sim engine or
// live mailbox) — so the lockfield discipline does not apply here; the
// mutex-guarded shared state lives in Events, trace.Tracer, and
// metrics.Registry.
//
// Each entity the RM knows of has one ordered table: the members, the
// sessions and the other domains. A member's position in peers is its
// peer index in the resource graph; every membership change dirties the
// graph, and every use of a graph peer index follows freshGraph.
//
// What the RM derives from its members' catalogs is a cache with one
// invalidation point, catalogDirty, called on every membership or
// catalog change: G_r with the format of each vertex (rebuilt by
// freshGraph while grDirty) and the own summary's Bloom filters (rebuilt
// by buildOwnSummary while nil). Every summary sent shares the filter
// bytes; nothing writes them.
type rmState struct {
	domain proto.DomainID

	peers    table[env.NodeID, *peerRecord]
	sessions table[string, *rmSession]
	domains  table[proto.DomainID, *domainRecord] // never the RM's own

	gr        *graph.ResourceGraph
	formats   []media.Format // by graph.VertexID
	grDirty   bool
	grBuiltAt sim.Time // when the edge latencies were last read from the members

	objectBloom, serviceBloom []byte // own summary filters; nil when stale

	backup  env.NodeID
	version uint64

	hbSeq  uint64
	hbSent map[uint64]sim.Time // probe send times for RTT measurement

	timers []env.Cancel
}

// peerRecord is the RM's view of one domain member (§3.1 items 2-6).
type peerRecord struct {
	id         env.NodeID
	info       proto.PeerInfo
	load       float64
	bw         float64
	lastReport sim.Time
	missed     int     // consecutive unanswered heartbeats
	rttMicros  float64 // smoothed heartbeat round trip; 0 before the first ack
}

func (r *peerRecord) key() env.NodeID { return r.id }

// util returns the record's relative load.
func (r *peerRecord) util() float64 { return r.load / r.info.SpeedWU }

// edgeLatencyMicros returns the RM's best per-hop latency estimate for
// the member: half the measured heartbeat RTT when available, otherwise
// the configured prior.
func (r *peerRecord) edgeLatencyMicros(prior int64) int64 {
	if r.rttMicros > 0 {
		return int64(r.rttMicros / 2)
	}
	return prior
}

// domainRecord is the RM's view of one other domain: its RM and, once
// gossip brought one in, its summary (§3.1, §4.4).
type domainRecord struct {
	id      proto.DomainID
	rm      env.NodeID
	summary *proto.DomainSummary // nil until gossiped in, and again once aged out
	seen    sim.Time             // when summary last advanced a version
	// pruned is the version of the last summary that aged out: a
	// tombstone against reinstalling stale copies. Zero is none, as every
	// RM's version starts at 1.
	pruned uint64
}

func (r *domainRecord) key() proto.DomainID { return r.id }

// Session lifecycle at the RM.
const (
	sessComposing = iota
	sessRunning
)

// rmSession is the RM's record of one session. The descriptor is its only
// copy of the session itself: the booked load is the work of its stages,
// and a repair or migration derives its goal and deadline from it (see
// rerun), so a session inherited at takeover is as complete as one
// admitted here.
type rmSession struct {
	desc  proto.SessionDesc
	state int

	pendingAcks  map[int]bool // roles awaiting ComposeAck
	composeTimer env.Cancel
	repairStart  sim.Time // nonzero while a repair recompose is in flight
	// fairness is the allocator's objective value at the last placement,
	// kept for the decision audit's utility delta.
	fairness float64
}

func (s *rmSession) key() string { return s.desc.TaskID }

// withOwn calls fn for every domain in domain order: with the record of
// each other domain, and with nil for the RM's own domain in its place.
func (s *rmState) withOwn(fn func(rec *domainRecord)) {
	own, _ := s.domains.find(s.domain)
	for _, rec := range s.domains[:own] {
		fn(rec)
	}
	fn(nil)
	for _, rec := range s.domains[own:] {
		fn(rec)
	}
}

// rmRefs lists every RM this one knows, itself (self) included, in
// domain order.
func (s *rmState) rmRefs(self env.NodeID) []proto.RMRef {
	out := make([]proto.RMRef, 0, len(s.domains)+1)
	s.withOwn(func(rec *domainRecord) {
		if rec == nil {
			out = append(out, proto.RMRef{Domain: s.domain, RM: self})
		} else {
			out = append(out, proto.RMRef{Domain: rec.id, RM: rec.rm})
		}
	})
	return out
}

func (s *rmState) stopTimers() {
	for _, c := range s.timers {
		c.Cancel()
	}
	s.timers = nil
}

// becomeFounder makes this peer the Resource Manager of domain 0 (the
// first node of the overlay).
func (p *Peer) becomeFounder() {
	p.startRM(0, nil, nil, nil)
	p.joined = true
	p.startMemberTimers()
	p.events.emit(fact{kind: kindDomain, domain: 0})
}

// foundDomain starts a new domain after a BecomeRM promotion (§4.1).
func (p *Peer) foundDomain(id proto.DomainID, known []proto.RMRef) {
	p.startRM(id, known, nil, nil)
	p.joined = true
	p.startMemberTimers()
	p.events.emit(fact{kind: kindDomain, domain: id})
}

// takeover promotes this backup to Resource Manager using the replicated
// state (§4.1).
func (p *Peer) takeover() {
	st := p.backupState
	p.backupState = nil
	p.domain = st.Domain // the failover is stamped with the domain taken over
	detectionLag := p.ctx.Now() - p.lastRMContact
	p.events.decide(p.stamp(Decision{Action: DecisionFailover, Reason: "rm silent past heartbeat timeout"}),
		int64(detectionLag))
	var known []proto.RMRef
	for _, ref := range st.KnownRMs {
		known = append(known, ref)
	}
	p.startRM(st.Domain, known, st.Peers, st.Sessions)
	p.ctx.Logf("took over as RM of domain %d (%d peers, %d sessions)",
		st.Domain, len(st.Peers), len(st.Sessions))
	// Tell everyone — domain members fix their RM pointer, remote RMs fix
	// their gossip target.
	ann := proto.TakeoverAnnounce{Domain: st.Domain, NewRM: p.ctx.Self(), Backup: p.rm.backup}
	for _, rec := range p.rm.peers {
		if rec.id != p.ctx.Self() {
			p.ctx.Send(rec.id, ann)
		}
	}
	for _, rec := range p.rm.domains {
		p.ctx.Send(rec.rm, ann)
	}
}

// stamp fills a decision's time, node and domain from this peer.
func (p *Peer) stamp(d Decision) Decision {
	d.TSMicros, d.Node, d.Domain = int64(p.ctx.Now()), int(p.ctx.Self()), int(p.domain)
	return d
}

// decide records one RM decision of this peer; attrs go on its trace
// instant only.
func (p *Peer) decide(d Decision, attrs ...trace.Attr) { p.events.decide(p.stamp(d), 0, attrs...) }

// startRM initializes RM state. snapshot/sessions are non-nil only on
// takeover.
func (p *Peer) startRM(id proto.DomainID, known []proto.RMRef, snapshot []proto.PeerSnapshot, sessions []proto.SessionDesc) {
	p.domain = id
	p.rmID = p.ctx.Self()
	st := &rmState{
		domain: id,
		backup: env.NoNode,
		hbSent: make(map[uint64]sim.Time),
	}
	st.catalogDirty()
	p.rm = st
	// The RM is itself a processing peer of its domain (§2).
	self := p.info
	self.ID = p.ctx.Self()
	st.peers.put(&peerRecord{id: p.ctx.Self(), info: self, lastReport: p.ctx.Now()})
	for _, ref := range known {
		if ref.RM != p.ctx.Self() {
			st.noteRM(ref)
		}
	}
	for _, ps := range snapshot {
		if ps.Info.ID == p.ctx.Self() {
			continue
		}
		st.peers.put(&peerRecord{id: ps.Info.ID, info: ps.Info, load: ps.Load, lastReport: p.ctx.Now()})
	}
	for _, d := range sessions {
		st.sessions.put(&rmSession{desc: d, state: sessRunning})
		// Inherited sessions carry their trace context in the replicated
		// descriptor; bind it so post-takeover spans stay stitched.
		p.adoptTC(d.TaskID, d.TC)
	}
	st.electBackup(p)
	st.bumpVersion()

	cfg := p.cfg
	st.timers = append(st.timers,
		env.Every(p.ctx, cfg.HeartbeatPeriod, cfg.HeartbeatPeriod, p.rmHeartbeatTick),
		env.Every(p.ctx, cfg.BackupSyncPeriod, cfg.BackupSyncPeriod, p.rmBackupSyncTick),
		env.Every(p.ctx, cfg.ProfilePeriod, cfg.ProfilePeriod, p.rmOwnProfileTick),
	)
	p.disc.StartRM()
	if cfg.AdaptPeriod > 0 {
		st.timers = append(st.timers, env.Every(p.ctx, cfg.AdaptPeriod, cfg.AdaptPeriod, p.rmAdaptTick))
	}
}

func (s *rmState) bumpVersion() { s.version++ }

// catalogDirty drops everything derived from the members' catalogs.
func (s *rmState) catalogDirty() {
	s.grDirty = true
	s.objectBloom, s.serviceBloom = nil, nil
}

// electBackup picks the highest-scoring qualified member as backup RM
// (§4.1: "the first peer in the list serves as backup Resource Manager").
func (s *rmState) electBackup(p *Peer) {
	best := env.NoNode
	bestScore := -1.0
	for _, rec := range s.peers {
		if rec.id == p.ctx.Self() || !rec.info.Qualifies(p.cfg.Qualify) {
			continue
		}
		// Strictly-greater keeps the lowest ID among equal scores, making
		// the election deterministic.
		if sc := rec.info.Score(); sc > bestScore {
			best, bestScore = rec.id, sc
		}
	}
	s.backup = best
}

// noteRM records a remote domain's Resource Manager and returns the
// domain's record, or nil for the RM's own domain.
func (s *rmState) noteRM(ref proto.RMRef) *domainRecord {
	if ref.Domain == s.domain {
		return nil
	}
	rec, ok := s.domains.get(ref.Domain)
	if !ok {
		rec = &domainRecord{id: ref.Domain}
		s.domains.put(rec)
	}
	rec.rm = ref.RM
	if rec.summary != nil && rec.summary.RM != ref.RM {
		// Summaries are shared with other RMs and messages and never
		// written in place: copy on write.
		sum := *rec.summary
		sum.RM = ref.RM
		rec.summary = &sum
	}
	return rec
}

// --- membership handling (§4.1) ---

// rmHandleJoin runs the ultrapeer-style join negotiation.
func (p *Peer) rmHandleJoin(from env.NodeID, msg proto.Join) {
	if p.rm == nil {
		// Not an RM: redirect to ours ("connects ... to a random peer who
		// redirects it to the Resource Manager") — unless our RM has gone
		// silent, in which case pointing the joiner at a dead node only
		// feeds a retry storm.
		if p.joined && p.rmID != env.NoNode && !p.awaitingAnnounce {
			p.ctx.Send(from, proto.JoinRedirect{Target: p.rmID, Reason: "not-an-rm"})
		}
		return
	}
	st := p.rm
	rec, member := st.peers.get(from)
	if !member && len(st.peers) >= p.cfg.MaxDomainPeers {
		// Domain full. A qualified newcomer founds a new domain.
		if msg.Info.Qualifies(p.cfg.Qualify) {
			newDomain := proto.DomainID(from)
			refs := st.rmRefs(p.ctx.Self())
			st.noteRM(proto.RMRef{Domain: newDomain, RM: from})
			p.ctx.Send(from, proto.BecomeRM{NewDomain: newDomain, KnownRMs: refs})
			return
		}
		// Unqualified: redirect to the least-utilized other domain with
		// capacity — unless the joiner has already been bounced around, in
		// which case admit past the cap rather than strand it.
		if msg.Hops < p.cfg.MaxRedirects {
			if target := p.disc.RedirectRM(p.cfg.MaxDomainPeers); target != env.NoNode {
				p.ctx.Send(from, proto.JoinRedirect{Target: target, Reason: "domain-full"})
				return
			}
		}
		// Nowhere to send them: stretch the cap rather than strand the peer.
	}
	// A re-join is a retry after a lost accept or a member pushing a
	// catalog change; only a real catalog change dirties the graph and
	// re-advertises (plain retries differ just in uptime). Either kind can
	// raise the member's uptime past the backup threshold, so the backup
	// is re-elected on every join.
	changed := !member || !catalogEqual(rec.info, msg.Info)
	if member {
		rec.info = msg.Info
	} else {
		st.peers.put(&peerRecord{id: from, info: msg.Info, lastReport: p.ctx.Now()})
	}
	if changed {
		st.catalogDirty()
		st.bumpVersion()
		p.disc.CatalogChanged()
	}
	st.electBackup(p)
	p.sendAccept(from)
}

// sendAccept sends JoinAccept with the member list as fallback contacts.
func (p *Peer) sendAccept(to env.NodeID) {
	st := p.rm
	members := make([]env.NodeID, 0, len(st.peers))
	for _, rec := range st.peers {
		if rec.id != to {
			members = append(members, rec.id)
		}
	}
	p.ctx.Send(to, proto.JoinAccept{
		Domain: st.domain,
		RM:     p.ctx.Self(),
		Backup: st.backup,
		Peers:  members,
	})
}

// rmHandleLeave processes a graceful departure.
func (p *Peer) rmHandleLeave(from env.NodeID) {
	if p.rm == nil {
		return
	}
	p.rmRemovePeer(from, "leave")
}

// rmRemovePeer drops a peer from the domain and repairs affected state
// (§4.1: update objects/services, resource graph, and substitute the peer
// in interrupted service graphs).
func (p *Peer) rmRemovePeer(id env.NodeID, reason string) {
	st := p.rm
	if !st.peers.remove(id) {
		return
	}
	st.catalogDirty()
	st.bumpVersion()
	p.disc.CatalogChanged()
	if st.backup == id {
		st.electBackup(p)
	}
	p.events.emit(fact{kind: kindPeerDead, domain: p.domain})
	if tr := p.events.Tracer(); tr != nil {
		tr.Instant(int64(p.ctx.Now()), "", "peer-dead", int(id), int(p.domain),
			trace.A("reason", reason))
	}
	p.ctx.Logf("peer n%d removed (%s)", id, reason)
	// Repair every session whose pipeline used the peer (§4.1). A repair
	// can abort sessions, so walk a copy of the table.
	for _, sess := range slices.Clone(st.sessions) {
		if sess.desc.UsesPeer(id) {
			p.repairSession(sess, id)
		}
	}
}

// rmHeartbeatTick probes every member and declares silent ones dead.
func (p *Peer) rmHeartbeatTick() {
	st := p.rm
	if st == nil {
		return
	}
	st.hbSeq++
	st.hbSent[st.hbSeq] = p.ctx.Now()
	delete(st.hbSent, st.hbSeq-8) // keep a short probe history
	var dead []env.NodeID
	var req env.Message = proto.HeartbeatReq{Seq: st.hbSeq, Backup: st.backup} // boxed once for every member
	for _, rec := range st.peers {
		if rec.id == p.ctx.Self() {
			continue
		}
		rec.missed++
		if rec.missed > p.cfg.HeartbeatMisses {
			dead = append(dead, rec.id)
			continue
		}
		p.ctx.Send(rec.id, req)
	}
	for _, id := range dead {
		p.rmRemovePeer(id, "heartbeat-timeout")
	}
}

// rmHandleHeartbeatAck clears a member's missed-heartbeat count and folds
// the probe round-trip into its communication-time estimate (§3.2:
// the system monitors communication times as applications execute; the
// RM uses them as the per-hop latency of resource-graph edges).
func (p *Peer) rmHandleHeartbeatAck(from env.NodeID, msg proto.HeartbeatAck) {
	st := p.rm
	if st == nil {
		return
	}
	rec, ok := st.peers.get(from)
	if !ok {
		return // a late ack from a removed peer, or one from a stranger
	}
	rec.missed = 0
	if sent, ok := st.hbSent[msg.Seq]; ok {
		rtt := float64(p.ctx.Now() - sent)
		const alpha = 0.3
		if rec.rttMicros > 0 {
			rec.rttMicros = alpha*rtt + (1-alpha)*rec.rttMicros
		} else {
			rec.rttMicros = rtt
		}
	}
}

// rmHandleProfile folds a member's report into the domain view (§4.4).
func (p *Peer) rmHandleProfile(from env.NodeID, msg proto.ProfileUpdate) {
	st := p.rm
	if st == nil {
		return
	}
	rec, ok := st.peers.get(from)
	if !ok {
		return
	}
	rec.load = msg.Report.Load
	rec.bw = msg.Report.BandwidthKbps
	rec.lastReport = msg.Report.At
	rec.missed = 0 // a report is as good as a heartbeat ack
	p.events.emit(fact{kind: kindPeerLoad, domain: st.domain, peer: int(from), load: rec.load, util: rec.util()})
}

// rmOwnProfileTick refreshes the RM's own record directly.
func (p *Peer) rmOwnProfileTick() {
	st := p.rm
	if st == nil {
		return
	}
	if rec, ok := st.peers.get(p.ctx.Self()); ok {
		rec.load = p.prof.Load()
		rec.bw = p.prof.Bandwidth()
		rec.lastReport = p.ctx.Now()
		p.events.emit(fact{kind: kindPeerLoad, domain: st.domain, peer: int(p.ctx.Self()), load: rec.load, util: rec.util()})
	}
}

// rmBackupSyncTick retires expired sessions and replicates state to the
// backup RM. A session past its span plus one compose timeout has been
// finalised by its sink; if it is still here, its SessionEnd went to a
// failed RM or was lost, and its booked load would stay as phantom load.
func (p *Peer) rmBackupSyncTick() {
	st := p.rm
	if st == nil {
		return
	}
	var expired []*rmSession
	for _, sess := range st.sessions {
		if p.ctx.Now() > sessionSpan(sess.desc)+p.cfg.ComposeTimeout {
			expired = append(expired, sess)
		}
	}
	for _, sess := range expired {
		p.release(sess)
	}
	if st.backup == env.NoNode {
		return
	}
	p.ctx.Send(st.backup, proto.BackupSync{State: p.rmSnapshot()})
}

// rmSnapshot captures the replicated DomainState.
func (p *Peer) rmSnapshot() proto.DomainState {
	st := p.rm
	ds := proto.DomainState{Domain: st.domain, Version: st.version, Peers: make([]proto.PeerSnapshot, len(st.peers))}
	for i, rec := range st.peers {
		ds.Peers[i] = proto.PeerSnapshot{Info: rec.info, Load: rec.load}
	}
	running := 0
	for _, sess := range st.sessions {
		if sess.state == sessRunning {
			running++
		}
	}
	if running > 0 {
		ds.Sessions = make([]proto.SessionDesc, 0, running)
		for _, sess := range st.sessions {
			if sess.state == sessRunning {
				ds.Sessions = append(ds.Sessions, sess.desc)
			}
		}
	}
	ds.KnownRMs = st.rmRefs(p.ctx.Self())
	return ds
}

// --- resource graph maintenance (§3.4) ---

// graphRefreshPeriod bounds how stale the resource graph's measured edge
// latencies may get before an allocation refreshes them.
const graphRefreshPeriod = 5 * sim.Second

// freshGraph rebuilds G_r when membership or a catalog changed, and
// otherwise rewrites its edge latencies in place once they are stale.
func (p *Peer) freshGraph() {
	st := p.rm
	if st.grDirty {
		p.rebuildGraph()
		return
	}
	if p.ctx.Now()-st.grBuiltAt <= graphRefreshPeriod {
		return
	}
	st.grBuiltAt = p.ctx.Now()
	for v := range st.gr.NumVertices() {
		for _, id := range st.gr.Out(graph.VertexID(v)) {
			rec := st.peers[st.gr.Edge(id).Peer]
			st.gr.SetLatency(id, rec.edgeLatencyMicros(p.cfg.LatencyEstimateMicros))
		}
	}
}

// rebuildGraph reconstructs G_r from the current membership: one edge per
// (peer, transcoder), vertices for every format seen.
func (p *Peer) rebuildGraph() {
	st := p.rm
	st.grBuiltAt = p.ctx.Now()
	st.gr = graph.NewResourceGraph()
	st.formats = st.formats[:0]
	addFormat := func(f media.Format) graph.VertexID {
		key := f.Key()
		if v, ok := st.gr.Lookup(key); ok {
			return v
		}
		st.formats = append(st.formats, f)
		return st.gr.AddVertex(key, f.String())
	}
	for i, rec := range st.peers {
		for _, obj := range rec.info.Objects {
			addFormat(obj.Format)
		}
		for _, tr := range rec.info.Services {
			from := addFormat(tr.From)
			to := addFormat(tr.To)
			st.gr.AddEdge(graph.Edge{
				From:          from,
				To:            to,
				Peer:          i,
				Service:       tr.Key(),
				Work:          tr.WorkUnits(),
				LatencyMicros: rec.edgeLatencyMicros(p.cfg.LatencyEstimateMicros),
			})
		}
	}
	st.grDirty = false
}

// peerView snapshots the domain loads in graph index order.
func (st *rmState) peerView() *graph.PeerView {
	pv := &graph.PeerView{
		Load:  make([]float64, len(st.peers)),
		Speed: make([]float64, len(st.peers)),
	}
	for i, rec := range st.peers {
		pv.Load[i] = rec.load
		pv.Speed[i] = rec.info.SpeedWU
	}
	return pv
}

// viewWithout returns the load view less a session's stage work, each
// stage clamped at zero the way release clamps the book: the hypothetical
// view a probe, repair or migration searches. The book itself is never
// changed to probe. Valid after freshGraph.
func (st *rmState) viewWithout(stages []proto.StageDesc) *graph.PeerView {
	pv := st.peerView()
	for _, s := range stages {
		if i, ok := st.peers.find(s.Peer); ok {
			pv.Load[i] -= s.Work
			if pv.Load[i] < 0 {
				pv.Load[i] = 0
			}
		}
	}
	return pv
}

// --- task admission and allocation (§4.3, §4.5) ---

// rmHandleSubmit admits, redirects or rejects a task query.
func (p *Peer) rmHandleSubmit(from env.NodeID, msg proto.TaskSubmit) {
	st := p.rm
	if st == nil {
		// Misdirected: point the sender at our RM.
		if p.joined && p.rmID != env.NoNode && p.rmID != p.ctx.Self() {
			p.ctx.Send(p.rmID, msg)
		}
		return
	}
	spec := msg.Spec
	p.adoptTC(spec.ID, msg.TC)
	if spec.ChunkSec <= 0 {
		spec.ChunkSec = p.cfg.DefaultChunkSec
	}
	p.freshGraph()
	q := query{task: spec.ID, object: spec.ObjectName, prefer: env.NoNode,
		goals: st.constraintGoals(spec.Constraint), deadline: spec.DeadlineMicros, chunkSec: spec.ChunkSec}
	pl, why := p.search(q, st.peerView())
	if why == "" {
		p.admit(spec, pl, "")
		return
	}
	// No allocation with current resources. With preemption enabled, try
	// sacrificing a running lower-importance session (Importance_t,
	// §3.3): probe feasibility with the victim's load removed before
	// actually aborting anything.
	if p.cfg.PreemptLowImportance && p.tryPreemptFor(spec, q) {
		return
	}
	// Otherwise redirect toward a domain advertising the object (§4.5),
	// bounded by MaxRedirects. The discovery backend resolves the target —
	// synchronously from gossiped summaries, or via an iterative DHT
	// lookup whose continuation re-validates the RM role (the peer may
	// have been demoted or taken over while the walk was in flight).
	reject := func() {
		p.ctx.Logf("task %s rejected: %s", spec.ID, why)
		p.decide(Decision{Task: spec.ID, Action: DecisionReject, Reason: why, Candidates: pl.considered})
		p.rejectUpstream(spec.ID, spec.Origin, why)
	}
	if msg.Hops < p.cfg.MaxRedirects {
		hops := msg.Hops
		p.disc.LookupObject(spec.ID, spec.ObjectName, p.traceCtx(spec.ID, "lookup"), func(target env.NodeID) {
			if p.rm != st {
				return
			}
			if target == env.NoNode {
				reject()
				return
			}
			p.decide(Decision{Task: spec.ID, Action: DecisionRedirect, Reason: why, Candidates: pl.considered},
				trace.A("target_rm", int(target)), trace.A("hops", hops+1))
			p.ctx.Send(target, proto.TaskSubmit{Spec: spec, Hops: hops + 1,
				TC: p.traceCtx(spec.ID, "redirect")})
		})
		return
	}
	reject()
}

// query is one run of the Figure-3 search: admission, a preemption probe,
// a repair or a migration.
type query struct {
	task, object string
	// prefer keeps that holder as the source while it still holds the
	// object; otherwise (and with NoNode) the least-utilised holder is.
	prefer   env.NodeID
	goals    []graph.VertexID // in vertex order, or just goalSource
	deadline int64            // startup deadline, µs
	chunkSec float64
}

// goalSource, as a query's only goal, stands for the source object's own
// format: the goal of a session composed without stages.
const goalSource graph.VertexID = -1

// Reasons a search finds no placement.
const (
	whyNoObject = "object not in domain"
	whyNoFormat = "object format not in resource graph"
	whyNoGoal   = "no format satisfies the constraint"
	whyNoAlloc  = "no allocation satisfies the QoS requirements"
)

// constraintGoals lists every known format state satisfying c, in
// vertex order: the goal candidates of an admission.
func (st *rmState) constraintGoals(c media.Constraint) []graph.VertexID {
	var goals []graph.VertexID
	for v, f := range st.formats {
		if f.Satisfies(c) {
			goals = append(goals, graph.VertexID(v))
		}
	}
	return goals
}

// rerun returns the query that runs a composed session's search again
// (§4.5): its object, its source while that still holds it, and its goal
// — the output format of its last stage, or the object's own format when
// it has none. The goal list is empty once that format left the graph.
func (st *rmState) rerun(d proto.SessionDesc) query {
	q := query{task: d.TaskID, object: d.ObjectName, prefer: d.SourcePeer,
		deadline: int64(d.StartupDeadline), chunkSec: d.ChunkSec}
	if len(d.Stages) == 0 {
		q.goals = []graph.VertexID{goalSource}
	} else if v, ok := st.gr.Lookup(media.OutputKey(d.Stages[len(d.Stages)-1].Service)); ok {
		q.goals = []graph.VertexID{v}
	}
	return q
}

// placement is the outcome of a search.
type placement struct {
	alloc graph.Allocation
	obj   media.Object
	src   env.NodeID
	// considered lists the goal formats evaluated but not chosen — the
	// considered-but-rejected candidate set of the decision audit.
	considered []string
}

// search runs the Figure-3 search against the load view pv without side
// effects: pick the source holder, allocate from its format to each goal
// with the configured strategy, and keep the fairest feasible result
// (ties: the shorter path). It is the RM's only allocator call.
func (p *Peer) search(q query, pv *graph.PeerView) (placement, string) {
	st := p.rm
	pl := placement{src: env.NoNode}
	srcUtil := 0.0
	for i, rec := range st.peers {
		for _, o := range rec.info.Objects {
			if o.Name != q.object {
				continue
			}
			u := pv.Load[i] / pv.Speed[i]
			if pl.src == env.NoNode || rec.id == q.prefer || (pl.src != q.prefer && u < srcUtil) {
				pl.obj, pl.src, srcUtil = o, rec.id, u
			}
		}
	}
	if pl.src == env.NoNode {
		return pl, whyNoObject
	}
	vInit, ok := st.gr.Lookup(pl.obj.Format.Key())
	if !ok {
		return pl, whyNoFormat
	}
	goals := q.goals
	if len(goals) == 0 {
		return pl, whyNoGoal
	}
	if goals[0] == goalSource {
		goals = []graph.VertexID{vInit}
	}
	req := graph.Request{Init: vInit, DeadlineMicros: q.deadline, ChunkSeconds: q.chunkSec}
	started := p.nanotime()
	best, found := graph.VertexID(-1), false
	for _, g := range goals {
		req.Goal = g
		alloc, err := p.cfg.Allocator.Allocate(st.gr, req, pv)
		if err != nil {
			continue
		}
		if !found || alloc.Fairness > pl.alloc.Fairness ||
			(alloc.Fairness == pl.alloc.Fairness && len(alloc.Path) < len(pl.alloc.Path)) {
			pl.alloc, best, found = alloc, g, true
		}
	}
	allocNanos := p.nanotime() - started
	for _, g := range goals {
		if !found || g != best {
			pl.considered = append(pl.considered, st.gr.Vertex(g).Key)
		}
	}
	p.events.emit(fact{kind: kindAlloc, domain: p.domain, now: int64(p.ctx.Now()), n: allocNanos})
	if tr := p.events.Tracer(); tr != nil {
		// ts is the virtual/wall clock of the run; dur is the real
		// computation cost (virtual time does not advance while the
		// allocator runs under simulation).
		tr.Complete(int64(p.ctx.Now()), allocNanos/1e3, q.task, "allocate",
			int(p.ctx.Self()), int(p.domain), trace.A("goals", len(goals)))
	}
	if !found {
		return pl, whyNoAlloc
	}
	return pl, ""
}

// stages turns an allocation path into a session's stage list.
func (st *rmState) stages(path []graph.EdgeID) []proto.StageDesc {
	var out []proto.StageDesc
	for _, eid := range path {
		e := st.gr.Edge(eid)
		out = append(out, proto.StageDesc{
			Peer:           st.peers[e.Peer].id,
			Service:        e.Service,
			Work:           e.Work,
			InBitrateKbps:  st.formats[e.From].BitrateKbps,
			OutBitrateKbps: st.formats[e.To].BitrateKbps,
		})
	}
	return out
}

// admit materialises a placement as a new session — its descriptor (the
// service graph G_s), its booked load — and composes it.
func (p *Peer) admit(spec proto.TaskSpec, pl placement, reason string) {
	dur := spec.DurationSec
	if dur <= 0 {
		dur = pl.obj.DurationSeconds()
	}
	if dur <= 0 {
		dur = 10
	}
	numChunks := int(dur/spec.ChunkSec + 0.5)
	if numChunks < 1 {
		numChunks = 1
	}
	sess := &rmSession{state: sessComposing, fairness: pl.alloc.Fairness, desc: proto.SessionDesc{
		TaskID:            spec.ID,
		RM:                p.ctx.Self(),
		Origin:            spec.Origin,
		SourcePeer:        pl.src,
		Stages:            p.rm.stages(pl.alloc.Path),
		ObjectName:        spec.ObjectName,
		SourceBitrateKbps: pl.obj.Format.BitrateKbps,
		ChunkSec:          spec.ChunkSec,
		NumChunks:         numChunks,
		StartupDeadline:   sim.Time(spec.DeadlineMicros),
		PlaybackBase:      p.ctx.Now() + sim.Time(spec.DeadlineMicros),
		Importance:        spec.Importance,
		TC:                p.traceCtx(spec.ID, "allocate"),
	}}
	p.applyLoads(sess.desc.Stages, +1)
	p.rm.sessions.put(sess)
	p.decide(Decision{Task: spec.ID, Action: DecisionAdmit, Reason: reason,
		UtilityDelta: pl.alloc.Fairness, Candidates: pl.considered})
	p.composeSession(sess)
}

// tryPreemptFor looks for a running session with lower importance whose
// removal would make the query feasible; if one exists it is aborted and
// the placement found without it admitted. Reports whether it was.
func (p *Peer) tryPreemptFor(spec proto.TaskSpec, q query) bool {
	st := p.rm
	// Victims: running sessions strictly less important, cheapest
	// importance first, deterministic order.
	var victims []*rmSession
	for _, sess := range st.sessions {
		if sess.state == sessRunning && sess.desc.Importance < spec.Importance {
			victims = append(victims, sess)
		}
	}
	sort.SliceStable(victims, func(i, j int) bool {
		return victims[i].desc.Importance < victims[j].desc.Importance
	})
	var probed []string
	for _, victim := range victims {
		pl, why := p.search(q, st.viewWithout(victim.desc.Stages))
		if why != "" {
			probed = append(probed, victim.desc.TaskID)
			continue
		}
		p.abortSession(victim, "preempted", true)
		p.decide(Decision{Task: victim.desc.TaskID, Action: DecisionPreempt,
			Reason: "for " + spec.ID, Candidates: probed})
		p.ctx.Logf("preempted %s (importance %d) for %s (importance %d)",
			victim.desc.TaskID, victim.desc.Importance, spec.ID, spec.Importance)
		// The preempt decision lists the probed victims; the admission
		// carries no candidates of its own.
		pl.considered = nil
		p.admit(spec, pl, "after preemption")
		return true
	}
	return false
}

// applyLoads adjusts the RM's load book by a session's stage work.
func (p *Peer) applyLoads(stages []proto.StageDesc, sign float64) {
	for _, s := range stages {
		if rec, ok := p.rm.peers.get(s.Peer); ok {
			rec.load += sign * s.Work
			if rec.load < 0 {
				rec.load = 0
			}
		}
	}
}

// release retires a session at the RM: its compose timer, its booked load
// and its table entry. Session end and every abort come through here.
func (p *Peer) release(sess *rmSession) {
	sess.composeTimer.Cancel()
	p.applyLoads(sess.desc.Stages, -1)
	p.rm.sessions.remove(sess.desc.TaskID)
}

// composeSession sends the graph-composition messages (§4.3) and arms the
// ack timeout.
func (p *Peer) composeSession(sess *rmSession) {
	d := sess.desc
	sess.state = sessComposing
	if tr := p.events.Tracer(); tr != nil {
		tr.BeginPhase(int64(p.ctx.Now()), d.TaskID, "compose", int(p.ctx.Self()), int(p.domain),
			trace.A("stages", len(d.Stages)), trace.A("generation", d.Generation))
	}
	sess.pendingAcks = map[int]bool{proto.RoleSource: true, proto.RoleSink: true}
	p.sendOrLoop(d.SourcePeer, proto.GraphCompose{Session: d, Role: proto.RoleSource})
	p.sendOrLoop(d.Origin, proto.GraphCompose{Session: d, Role: proto.RoleSink})
	for i := range d.Stages {
		sess.pendingAcks[i] = true
		p.sendOrLoop(d.Stages[i].Peer, proto.GraphCompose{Session: d, Role: i})
	}
	taskID, gen := d.TaskID, d.Generation
	sess.composeTimer = p.ctx.After(p.cfg.ComposeTimeout, func() {
		p.composeTimedOut(taskID, gen)
	})
}

// sendOrLoop delivers a message, short-circuiting sends to self (the RM
// can be a session participant).
func (p *Peer) sendOrLoop(to env.NodeID, m env.Message) {
	if to == p.ctx.Self() {
		p.Receive(p.ctx.Self(), m)
		return
	}
	p.ctx.Send(to, m)
}

// composeTimedOut aborts a session whose participants never all acked.
func (p *Peer) composeTimedOut(taskID string, gen int) {
	st := p.rm
	if st == nil {
		return
	}
	sess, ok := st.sessions.get(taskID)
	if !ok || sess.state != sessComposing || sess.desc.Generation != gen {
		return
	}
	p.abortSession(sess, "compose-timeout", false)
	p.rejectUpstream(taskID, sess.desc.Origin, "session composition timed out")
}

// abortSession tears a session down everywhere. final=true makes the
// sink finalize and report the partial stream (mid-stream failures and
// preemptions); final=false discards silently (sessions that never
// started streaming).
func (p *Peer) abortSession(sess *rmSession, reason string, final bool) {
	d := sess.desc
	p.release(sess)
	if !final {
		// No sink report will ever exist for this task; account for it so
		// submissions never silently vanish.
		p.events.emit(fact{kind: kindAborted, domain: p.domain})
	}
	if tr := p.events.Tracer(); tr != nil {
		tr.Instant(int64(p.ctx.Now()), d.TaskID, "abort", int(p.ctx.Self()), int(p.domain),
			trace.A("reason", reason), trace.A("final", final))
		if !final {
			tr.EndSession(int64(p.ctx.Now()), d.TaskID, int(p.ctx.Self()), int(p.domain), "aborted",
				trace.A("reason", reason))
		}
	}
	abort := proto.SessionAbort{TaskID: d.TaskID, Generation: d.Generation, Reason: reason,
		Final: final, TC: p.traceCtx(d.TaskID, "abort")}
	sent := map[env.NodeID]bool{}
	for _, peer := range d.PipelinePeers() {
		if !sent[peer] {
			sent[peer] = true
			p.sendOrLoop(peer, abort)
		}
	}
}

// rejectUpstream informs the submitter that its task died before
// completion machinery could report.
func (p *Peer) rejectUpstream(taskID string, origin env.NodeID, reason string) {
	if origin == p.ctx.Self() {
		p.rejectOwn(taskID, "rejected", reason)
		return
	}
	if origin != env.NoNode {
		p.ctx.Send(origin, proto.TaskReject{TaskID: taskID, Reason: reason,
			TC: p.traceCtx(taskID, "reject")})
	}
}

// rmHandleComposeAck advances a composing session; when all roles acked,
// streaming starts.
func (p *Peer) rmHandleComposeAck(from env.NodeID, msg proto.ComposeAck) {
	st := p.rm
	if st == nil {
		return
	}
	sess, ok := st.sessions.get(msg.TaskID)
	if !ok || sess.desc.Generation != msg.Generation || sess.state != sessComposing {
		return
	}
	if !msg.OK {
		// A participant refused its role (e.g. connection limit, §2):
		// the composition cannot complete — tear it down and reject.
		p.ctx.Logf("compose refused for %s by n%d: %s", msg.TaskID, from, msg.Reason)
		if msg.Role == proto.RoleSink {
			// Only a task that already has its outcome is refused by its
			// sink: retire the session without giving it a second one.
			p.abortSession(sess, "compose-refused", true)
			return
		}
		p.abortSession(sess, "compose-refused", false)
		p.rejectUpstream(msg.TaskID, sess.desc.Origin, "participant refused: "+msg.Reason)
		return
	}
	delete(sess.pendingAcks, msg.Role)
	if len(sess.pendingAcks) > 0 {
		return
	}
	sess.composeTimer.Cancel()
	sess.composeTimer = env.Cancel{}
	sess.state = sessRunning
	tr := p.events.Tracer()
	if tr != nil {
		tr.EndPhase(int64(p.ctx.Now()), msg.TaskID, "compose", int(p.ctx.Self()), int(p.domain))
	}
	if sess.repairStart > 0 {
		p.events.emit(fact{kind: kindRepair, domain: p.domain, n: int64(p.ctx.Now() - sess.repairStart)})
		if tr != nil {
			tr.EndPhase(int64(p.ctx.Now()), msg.TaskID, "repair", int(p.ctx.Self()), int(p.domain))
		}
		sess.repairStart = 0
	}
	if tr != nil {
		tr.BeginPhase(int64(p.ctx.Now()), msg.TaskID, "stream", int(p.ctx.Self()), int(p.domain),
			trace.A("generation", sess.desc.Generation))
	}
	p.sendOrLoop(sess.desc.SourcePeer, proto.SessionStart{TaskID: msg.TaskID,
		Generation: sess.desc.Generation, TC: p.traceCtx(msg.TaskID, "compose")})
}

// rmHandleSessionEnd releases the session's resources.
func (p *Peer) rmHandleSessionEnd(from env.NodeID, msg proto.SessionEnd) {
	st := p.rm
	if st == nil {
		return
	}
	p.adoptTC(msg.Report.TaskID, msg.TC)
	if sess, ok := st.sessions.get(msg.Report.TaskID); ok {
		p.release(sess)
	}
}

// --- failure repair and adaptation (§4.5) ---

// repairSession substitutes a failed peer in a running session's service
// graph by running its search again without its own load, or aborts when
// no substitution exists.
func (p *Peer) repairSession(sess *rmSession, dead env.NodeID) {
	st := p.rm
	d := sess.desc
	if d.Origin == dead {
		// The consumer is gone; tear everything down. A sink removed while
		// it still runs (it left, or its acks went missing) discards the
		// session on the abort, and its outcome watchdog stood down at
		// compose: tell it the task was rejected.
		p.abortSession(sess, "sink-failed", false)
		p.rejectUpstream(d.TaskID, d.Origin, "sink removed from the domain")
		return
	}
	p.freshGraph()
	pl, why := p.search(st.rerun(d), st.viewWithout(d.Stages))
	switch why {
	case "":
	case whyNoObject:
		p.abortSession(sess, "source-lost", true)
		return
	case whyNoAlloc:
		p.abortSession(sess, "no-repair-allocation", true)
		return
	default:
		p.abortSession(sess, "graph-state-lost", true)
		return
	}
	p.decide(Decision{Task: d.TaskID, Action: DecisionRepair,
		Reason:       fmt.Sprintf("peer n%d failed", dead),
		UtilityDelta: pl.alloc.Fairness - sess.fairness})
	p.recompose(sess, pl, true)
}

// recompose replaces a session's pipeline with a new placement, moving
// its booked load, bumping the generation, resuming from the estimated
// playback position, and aborting superseded participants.
func (p *Peer) recompose(sess *rmSession, pl placement, isRepair bool) {
	st := p.rm
	old := sess.desc
	d := old
	d.Generation++
	d.RM = p.ctx.Self() // a takeover RM adopts the sessions it repairs
	d.SourcePeer = pl.src
	d.Stages = st.stages(pl.alloc.Path)
	// Resume near the playback position: chunks before it were delivered
	// or are lost in flight (counted as misses by the sink).
	elapsed := p.ctx.Now() - (d.PlaybackBase - d.StartupDeadline)
	start := int(float64(elapsed) / (d.ChunkSec * 1e6))
	if start < 0 {
		start = 0
	}
	if start >= d.NumChunks {
		start = d.NumChunks - 1
	}
	d.StartChunk = start

	sess.desc = d
	sess.fairness = pl.alloc.Fairness
	p.applyLoads(old.Stages, -1)
	p.applyLoads(d.Stages, +1)
	if isRepair {
		sess.repairStart = p.ctx.Now()
		if tr := p.events.Tracer(); tr != nil {
			tr.BeginPhase(int64(p.ctx.Now()), d.TaskID, "repair", int(p.ctx.Self()), int(p.domain),
				trace.A("generation", d.Generation))
		}
	}

	// Abort pipeline members of the old generation that are not reused.
	inNew := map[env.NodeID]bool{}
	for _, id := range d.PipelinePeers() {
		inNew[id] = true
	}
	abort := proto.SessionAbort{TaskID: d.TaskID, Generation: old.Generation, Reason: "superseded"}
	for _, id := range old.PipelinePeers() {
		if _, member := st.peers.get(id); member && !inNew[id] {
			p.sendOrLoop(id, abort)
		}
	}
	p.composeSession(sess)
}

// rmAdaptTick detects overload and reassigns work (§4.5: "some of the
// currently running application tasks might be reassigned. The allocation
// algorithm ... is run again").
func (p *Peer) rmAdaptTick() {
	st := p.rm
	if st == nil || len(st.sessions) == 0 {
		return
	}
	// Find the most overloaded peer and check that spare capacity exists
	// elsewhere.
	var worst env.NodeID = env.NoNode
	worstUtil := 0.0
	spare := false
	for _, rec := range st.peers {
		u := rec.util()
		if u > worstUtil {
			worst, worstUtil = rec.id, u
		}
		if u < p.cfg.OverloadUtil-p.cfg.ReassignMargin {
			spare = true
		}
	}
	if worst == env.NoNode || worstUtil <= p.cfg.OverloadUtil || !spare {
		return
	}
	// Migrate the heaviest running session that uses the overloaded peer
	// as a stage.
	var pick *rmSession
	pickWork := 0.0
	for _, sess := range st.sessions {
		if sess.state != sessRunning {
			continue
		}
		for _, stg := range sess.desc.Stages {
			if stg.Peer == worst && stg.Work > pickWork {
				pick, pickWork = sess, stg.Work
			}
		}
	}
	if pick == nil {
		return
	}
	p.freshGraph()
	// Re-run the search without the session's load and with the
	// overloaded peer saturated, so the allocator avoids it.
	pv := st.viewWithout(pick.desc.Stages)
	if idx, ok := st.peers.find(worst); ok {
		pv.Load[idx] = pv.Speed[idx]
	}
	pl, why := p.search(st.rerun(pick.desc), pv)
	if why != "" {
		return
	}
	// Only migrate if the new pipeline actually avoids the hot peer.
	for _, eid := range pl.alloc.Path {
		if st.peers[st.gr.Edge(eid).Peer].id == worst {
			return
		}
	}
	p.decide(Decision{Task: pick.desc.TaskID, Action: DecisionMigrate,
		Reason:       fmt.Sprintf("peer n%d overloaded (util %.2f)", worst, worstUtil),
		UtilityDelta: pl.alloc.Fairness - pick.fairness})
	p.recompose(pick, pl, false)
}

// DomainSize reports the RM's current member count (tests/experiments).
func (p *Peer) DomainSize() int {
	if p.rm == nil {
		return 0
	}
	return len(p.rm.peers)
}

// DomainFairness returns the fairness index of the RM's current load view.
func (p *Peer) DomainFairness() float64 {
	if p.rm == nil {
		return 0
	}
	if p.rm.grDirty {
		p.rebuildGraph()
	}
	pv := p.rm.peerView()
	var loads []float64
	for i := range pv.Load {
		loads = append(loads, pv.Load[i]/pv.Speed[i])
	}
	return fairnessIndex(loads)
}

// RunningSessions reports the RM's live session count.
func (p *Peer) RunningSessions() int {
	if p.rm == nil {
		return 0
	}
	return len(p.rm.sessions)
}

// SessionIDs lists the task IDs in the RM's session table (sorted).
func (p *Peer) SessionIDs() []string {
	if p.rm == nil {
		return nil
	}
	ids := make([]string, len(p.rm.sessions))
	for i, sess := range p.rm.sessions {
		ids[i] = sess.desc.TaskID
	}
	return ids
}

// KnownDomains reports how many other domains this RM has heard of.
func (p *Peer) KnownDomains() int {
	if p.rm == nil {
		return 0
	}
	return len(p.rm.domains)
}

// Backup returns the RM's current backup choice.
func (p *Peer) Backup() env.NodeID {
	if p.rm == nil {
		return env.NoNode
	}
	return p.rm.backup
}

// String renders the peer for diagnostics.
func (p *Peer) String() string {
	role := "peer"
	if p.IsRM() {
		role = fmt.Sprintf("RM(domain=%d,n=%d)", p.domain, p.DomainSize())
	}
	return fmt.Sprintf("node[%s joined=%v]", role, p.joined)
}
