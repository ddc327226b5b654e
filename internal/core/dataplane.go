package core

import (
	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The data plane streams media chunks along a composed pipeline:
// source -> stage_0 -> ... -> stage_{n-1} -> sink. Each stage runs its
// transcode work through the peer's Local Scheduler, so concurrent
// sessions on one peer contend under the configured policy (LLS).

// sourceSession is the source-role state of one session.
type sourceSession struct {
	desc     proto.SessionDesc
	emitting bool
	next     int // next chunk index to emit
	cancel   env.Cancel
}

// stageSession is the stage-role state of one session.
type stageSession struct {
	desc     proto.SessionDesc
	role     int                  // stage index
	tasks    map[int]sched.TaskID // chunk index -> local scheduler task
	watchdog env.Cancel
}

// sinkSession is the sink-role state of one session.
type sinkSession struct {
	desc        proto.SessionDesc
	received    []bool
	late        int
	firstAt     sim.Time
	sumLatency  float64
	nLatency    int
	generations map[int]bool
	finalized   bool
	watchdog    env.Cancel
}

// sessionSpan returns a generous absolute cleanup horizon for a session:
// playback end plus one startup budget of grace.
func sessionSpan(d proto.SessionDesc) sim.Time {
	playEnd := playbackBase(d) + sim.Time(float64(d.NumChunks)*d.ChunkSec*1e6)
	return playEnd + d.StartupDeadline + 2*sim.Second
}

// playbackBase returns the absolute time playback of chunk 0 is due.
func playbackBase(d proto.SessionDesc) sim.Time { return d.PlaybackBase }

// chunkDeadline returns the absolute playback deadline of chunk i.
func chunkDeadline(d proto.SessionDesc, i int) sim.Time {
	return playbackBase(d) + sim.Time(float64(i)*d.ChunkSec*1e6)
}

// handleCompose installs one role of a session pipeline on this peer. A
// newer generation supersedes and releases any older instance. A peer
// whose Connection Manager is at capacity refuses new roles (§2).
func (p *Peer) handleCompose(from env.NodeID, msg proto.GraphCompose) {
	d := msg.Session
	p.adoptTC(d.TaskID, d.TC)
	if p.cfg.MaxConnections > 0 && p.conn.Active() >= p.cfg.MaxConnections && p.needsNewConn(d, msg.Role) {
		p.sendOrLoop(from, proto.ComposeAck{
			TaskID: d.TaskID, Role: msg.Role, Generation: d.Generation,
			OK: false, Reason: "connection limit reached",
		})
		return
	}
	switch msg.Role {
	case proto.RoleSource:
		if old, ok := p.asSource[d.TaskID]; ok {
			if old.desc.Generation >= d.Generation {
				p.ctx.Send(from, proto.ComposeAck{TaskID: d.TaskID, Role: msg.Role, Generation: d.Generation, OK: true})
				return
			}
			p.stopSource(old)
		}
		p.asSource[d.TaskID] = &sourceSession{desc: d, next: d.StartChunk}
		p.conn.Open(p.nextHop(d, -1))
	case proto.RoleSink:
		if _, pending := p.submits[d.TaskID]; !pending {
			if _, ok := p.asSink[d.TaskID]; !ok {
				// The task already has its outcome (a report, or a
				// watchdog timeout): a late recompose must not open a
				// second one. The refusal retires the session at an RM
				// that never got the SessionEnd (it went to an RM that
				// has since failed).
				p.ctx.Send(from, proto.ComposeAck{TaskID: d.TaskID, Role: msg.Role,
					Generation: d.Generation, Reason: "task already resolved"})
				return
			}
		}
		// Our own submission was admitted: the outcome watchdog can stand
		// down — a report is now guaranteed (finalize or abort paths).
		if cancel, ok := p.submitTimers[d.TaskID]; ok {
			cancel()
			delete(p.submitTimers, d.TaskID)
		}
		s, ok := p.asSink[d.TaskID]
		if !ok {
			s = &sinkSession{
				desc:        d,
				received:    make([]bool, d.NumChunks),
				generations: map[int]bool{d.Generation: true},
			}
			p.asSink[d.TaskID] = s
			// Watchdog finalizes even if chunks were lost to failures.
			horizon := sessionSpan(d) - p.ctx.Now()
			if horizon < sim.Second {
				horizon = sim.Second
			}
			s.watchdog = p.ctx.After(horizon, func() { p.finalizeSink(d.TaskID) })
		} else {
			s.generations[d.Generation] = true
			s.desc = d
		}
	default: // transcoding stage
		if old, ok := p.asStage[d.TaskID]; ok {
			if old.desc.Generation >= d.Generation {
				p.ctx.Send(from, proto.ComposeAck{TaskID: d.TaskID, Role: msg.Role, Generation: d.Generation, OK: true})
				return
			}
			p.releaseStage(old)
		}
		st := &stageSession{desc: d, role: msg.Role, tasks: make(map[int]sched.TaskID)}
		p.asStage[d.TaskID] = st
		p.prof.AddLoad(d.Stages[msg.Role].Work)
		p.prof.AddBandwidth(float64(d.Stages[msg.Role].OutBitrateKbps))
		p.conn.Open(p.nextHop(d, msg.Role))
		horizon := sessionSpan(d) - p.ctx.Now()
		if horizon < sim.Second {
			horizon = sim.Second
		}
		st.watchdog = p.ctx.After(horizon, func() {
			if cur, ok := p.asStage[d.TaskID]; ok && cur == st {
				p.releaseStage(st)
				delete(p.asStage, d.TaskID)
			}
		})
	}
	p.ctx.Send(from, proto.ComposeAck{TaskID: d.TaskID, Role: msg.Role, Generation: d.Generation, OK: true})
}

// needsNewConn reports whether taking the given role would open a
// connection this peer does not already hold.
func (p *Peer) needsNewConn(d proto.SessionDesc, role int) bool {
	switch role {
	case proto.RoleSink:
		return false // the sink only receives
	case proto.RoleSource:
		return !p.conn.Has(p.nextHop(d, -1))
	default:
		return !p.conn.Has(p.nextHop(d, role))
	}
}

// nextHop returns the node a given role forwards chunks to. role -1 is
// the source.
func (p *Peer) nextHop(d proto.SessionDesc, role int) env.NodeID {
	if role+1 < len(d.Stages) {
		return d.Stages[role+1].Peer
	}
	return d.Origin
}

// handleSessionStart begins (or resumes, after repair) chunk emission at
// the source.
func (p *Peer) handleSessionStart(msg proto.SessionStart) {
	p.adoptTC(msg.TaskID, msg.TC)
	s, ok := p.asSource[msg.TaskID]
	if !ok || s.desc.Generation != msg.Generation || s.emitting {
		return
	}
	s.emitting = true
	p.prof.AddBandwidth(float64(s.desc.SourceBitrateKbps))
	p.emitChunk(s)
}

// emitChunk sends the next chunk and schedules the following one at the
// stream's real-time cadence.
func (p *Peer) emitChunk(s *sourceSession) {
	cur, ok := p.asSource[s.desc.TaskID]
	if !ok || cur != s {
		return
	}
	d := s.desc
	if s.next >= d.NumChunks {
		p.stopSource(s)
		delete(p.asSource, d.TaskID)
		return
	}
	i := s.next
	s.next++
	first := 0
	if len(d.Stages) == 0 {
		first = sinkStage // direct streaming, no transcoding needed
	}
	chunk := proto.Chunk{
		TaskID:     d.TaskID,
		Generation: d.Generation,
		Index:      i,
		NextStage:  first,
		SizeKBv:    float64(d.SourceBitrateKbps) * d.ChunkSec / 8,
		Deadline:   chunkDeadline(d, i),
		Emitted:    p.ctx.Now(),
	}
	p.ctx.Send(p.nextHop(d, -1), chunk)
	s.cancel = p.ctx.After(sim.Time(d.ChunkSec*1e6), func() { p.emitChunk(s) })
}

// stopSource halts emission and releases source-side resources.
func (p *Peer) stopSource(s *sourceSession) {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
	if s.emitting {
		p.prof.AddBandwidth(-float64(s.desc.SourceBitrateKbps))
		s.emitting = false
	}
	p.conn.Close(p.nextHop(s.desc, -1))
}

// releaseStage drops a stage instance's load and connections and aborts
// its queued chunk work.
func (p *Peer) releaseStage(st *stageSession) {
	if st.watchdog != nil {
		st.watchdog()
	}
	p.prof.AddLoad(-st.desc.Stages[st.role].Work)
	p.prof.AddBandwidth(-float64(st.desc.Stages[st.role].OutBitrateKbps))
	p.conn.Close(p.nextHop(st.desc, st.role))
	// Removal order reaches the scheduler (each Remove can reschedule and
	// re-arm timers), so it must not follow map order.
	for _, idx := range sortedMapKeys(st.tasks) {
		p.proc.Remove(st.tasks[idx])
	}
	st.tasks = nil
}

// handleChunk routes a chunk through this peer's role in its pipeline.
func (p *Peer) handleChunk(from env.NodeID, c proto.Chunk) {
	if c.NextStage == sinkStage {
		p.sinkChunk(c)
		return
	}
	st, ok := p.asStage[c.TaskID]
	if !ok || st.desc.Generation != c.Generation || c.NextStage != st.role {
		return // stale generation or misrouted: drop
	}
	d := st.desc
	stage := d.Stages[st.role]
	work := stage.Work * d.ChunkSec
	p.nextTaskSeq++
	tid := sched.TaskID(p.nextTaskSeq)
	task := &sched.Task{
		ID:         tid,
		Deadline:   c.Deadline,
		Work:       work,
		Importance: d.Importance,
	}
	st.tasks[c.Index] = tid
	start := p.ctx.Now()
	p.onStageComplete(st, c, tid, start)
	p.proc.Add(task)
}

// sinkStage is the NextStage value addressing the sink. Chunks carry the
// stage count in NextStage once the last stage forwards them; the source
// of a stage-less session uses it directly.
const sinkStage = 1 << 20

// onStageComplete registers the completion continuation for a chunk task.
// The processor has a single OnComplete hook, so the peer keeps one
// dispatch table keyed by task ID.
func (p *Peer) onStageComplete(st *stageSession, c proto.Chunk, tid sched.TaskID, start sim.Time) {
	if p.stageDone == nil {
		p.stageDone = make(map[sched.TaskID]func(missed bool))
		p.proc.OnComplete = func(done sched.Completion) {
			if fn, ok := p.stageDone[done.Task.ID]; ok {
				delete(p.stageDone, done.Task.ID)
				fn(done.Missed)
			}
		}
	}
	p.stageDone[tid] = func(missed bool) {
		cur, ok := p.asStage[c.TaskID]
		if !ok || cur != st {
			return
		}
		d := st.desc
		stage := d.Stages[st.role]
		delete(st.tasks, c.Index)
		p.prof.ObserveServiceTime(stage.Service, float64(p.ctx.Now()-start))
		out := c
		out.NextStage = st.role + 1
		if out.NextStage >= len(d.Stages) {
			out.NextStage = sinkStage
		}
		out.SizeKBv = float64(stage.OutBitrateKbps) * d.ChunkSec / 8
		p.ctx.Send(p.nextHop(d, st.role), out)
		if c.Index == d.NumChunks-1 {
			p.releaseStage(st)
			delete(p.asStage, c.TaskID)
		}
	}
}

// sinkChunk accounts a chunk's arrival at the stream consumer.
func (p *Peer) sinkChunk(c proto.Chunk) {
	s, ok := p.asSink[c.TaskID]
	if !ok || s.finalized {
		return
	}
	if c.Index < 0 || c.Index >= len(s.received) || s.received[c.Index] {
		return // duplicate after repair: first arrival already counted
	}
	s.received[c.Index] = true
	now := p.ctx.Now()
	if s.firstAt == 0 {
		s.firstAt = now
	}
	if now > c.Deadline {
		s.late++
		if tr := p.events.Tracer(); tr != nil {
			tr.Instant(int64(now), c.TaskID, "chunk-late", int(p.ctx.Self()), int(p.domain),
				trace.A("chunk", c.Index), trace.A("late_micros", int64(now-c.Deadline)))
		}
	}
	s.sumLatency += float64(now - c.Emitted)
	s.nLatency++
	if c.Generation > s.desc.Generation {
		s.generations[c.Generation] = true
	}
	// All chunks in: finalize immediately.
	for _, r := range s.received {
		if !r {
			return
		}
	}
	p.finalizeSink(c.TaskID)
}

// finalizeSink closes the books on a session and reports to the RM.
func (p *Peer) finalizeSink(taskID string) {
	s, ok := p.asSink[taskID]
	if !ok || s.finalized {
		return
	}
	s.finalized = true
	if s.watchdog != nil {
		s.watchdog()
	}
	delete(p.asSink, taskID)
	recv := 0
	for _, r := range s.received {
		if r {
			recv++
		}
	}
	lost := len(s.received) - recv
	var startup int64
	if at, mine := p.submits[taskID]; mine {
		if s.firstAt > 0 {
			startup = int64(s.firstAt - at)
		}
		p.resolveSubmit(taskID)
	}
	var meanLat float64
	if s.nLatency > 0 {
		meanLat = s.sumLatency / float64(s.nLatency)
	}
	rep := proto.SessionReport{
		TaskID:            taskID,
		Chunks:            len(s.received),
		Received:          recv,
		Missed:            s.late + lost,
		StartupMicros:     startup,
		MeanLatencyMicros: meanLat,
		Repaired:          len(s.generations) - 1,
		FinishedMicros:    int64(p.ctx.Now()),
		Hops:              len(s.desc.Stages),
	}
	p.events.emit(fact{kind: kindCompleted, domain: p.domain, now: int64(p.ctx.Now()), report: rep})
	if tr := p.events.Tracer(); tr != nil {
		tr.EndSession(int64(p.ctx.Now()), taskID, int(p.ctx.Self()), int(p.domain), "completed",
			trace.A("chunks", rep.Chunks), trace.A("missed", rep.Missed),
			trace.A("startup_micros", rep.StartupMicros), trace.A("repaired", rep.Repaired))
	}
	end := proto.SessionEnd{Report: rep, TC: p.traceCtx(taskID, "stream")}
	if s.desc.RM == p.ctx.Self() {
		p.rmHandleSessionEnd(p.ctx.Self(), end)
	} else {
		p.ctx.Send(s.desc.RM, end)
	}
}

// ActiveSinkSessions lists the task IDs this peer is currently receiving
// as a sink (unfinalized sessions), for harness-side accounting.
func (p *Peer) ActiveSinkSessions() []string {
	out := make([]string, 0, len(p.asSink))
	for _, id := range sortedMapKeys(p.asSink) {
		if !p.asSink[id].finalized {
			out = append(out, id)
		}
	}
	return out
}

// handleSessionAbort tears down this peer's role in a session instance.
func (p *Peer) handleSessionAbort(msg proto.SessionAbort) {
	p.adoptTC(msg.TaskID, msg.TC)
	if s, ok := p.asSource[msg.TaskID]; ok && s.desc.Generation <= msg.Generation {
		p.stopSource(s)
		delete(p.asSource, msg.TaskID)
	}
	if st, ok := p.asStage[msg.TaskID]; ok && st.desc.Generation <= msg.Generation {
		p.releaseStage(st)
		delete(p.asStage, msg.TaskID)
	}
	if s, ok := p.asSink[msg.TaskID]; ok && s.desc.Generation <= msg.Generation {
		if msg.Final {
			// The task itself ended mid-stream: report what arrived.
			p.finalizeSink(msg.TaskID)
		} else {
			// Never streamed (cancelled during composition): discard.
			s.finalized = true
			if s.watchdog != nil {
				s.watchdog()
			}
			delete(p.asSink, msg.TaskID)
		}
	}
}
