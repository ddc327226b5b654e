package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/fairness"
	"repro/internal/live"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// liveSpec sizes the live-tcp workload: two runtimes in one process,
// joined over loopback TCP, sharing one domain.
type liveSpec struct {
	PeersPerSide   int
	Objects        int
	Rate           float64       // open-loop arrivals per wall second
	Arrivals       time.Duration // measured arrival window
	DurationSec    float64       // media seconds per session
	ChunkSec       float64
	DeadlineMicros int64
	Warmup         int           // sessions run to completion before measuring
	Drain          time.Duration // bound on the wait for every task to resolve
	JoinTimeout    time.Duration
}

// liveExtras is what only the live runtime reports.
type liveExtras struct {
	OfferedRate  float64 // tasks per second the generator was asked for
	AchievedRate float64 // reports per second of the measured phase
	LagMaxMs     float64 // worst generator lateness against the due time
	Frames       uint64  // transport frames written
	Batches      uint64  // coalesced transport writes
	Drops        uint64  // transport drops, every reason
	MailboxP99Ms float64 // no-op Call round trip to the RM (traced run only)
}

// liveSide is one runtime with its transport and event sinks, standing
// in for one process of a two-process deployment.
type liveSide struct {
	rt     *live.Runtime
	tr     *live.TCPTransport
	events *core.Events
	off    int64 // live.Nanotime()/1000 - rt.NowMicros()
}

// livePeer is one hosted peer: the actor and how to reach its loop.
type livePeer struct {
	id    env.NodeID
	side  *liveSide
	peer  *core.Peer
	actor *tracedActor // nil when untraced
}

func (p livePeer) call(fn func()) { p.side.rt.Call(p.id, fn) }

func newLiveSide(seed uint64) *liveSide {
	s := &liveSide{rt: live.NewRuntime(seed), events: &core.Events{}}
	// The sinks the public Live facade attaches.
	reg := metrics.NewRegistry()
	sk := stats.NewSet(0, 0, 0)
	s.events.AttachMetrics(reg)
	s.events.AttachSketches(sk)
	s.events.AttachDecisions(core.NewDecisionLog(0))
	s.tr = live.NewTCPTransportOpts(s.rt, live.TransportConfig{}, reg, nil)
	s.tr.AttachSketches(sk)
	return s
}

func (s *liveSide) close() {
	s.rt.Shutdown()
	s.tr.Close()
}

// liveTask is one open-loop arrival.
type liveTask struct {
	due    time.Duration // offset from the phase start
	origin int
	spec   proto.TaskSpec
	dueRt  int64 // due time on the origin runtime's clock, µs
	subRt  int64 // when the origin's loop ran the submission, µs
}

// runLiveRep builds the two-runtime fleet, drives one open-loop measured
// phase and tears everything down.
func runLiveRep(spec liveSpec, seed uint64, traced bool) (r rep) {
	proto.RegisterMessages()
	runtime.GC()
	t0 := time.Now()
	a := newLiveSide(rng.Derive(seed, 1))
	b := newLiveSide(rng.Derive(seed, 2))
	defer a.close()
	defer b.close()
	sides := []*liveSide{a, b}
	var addrs [2]string
	for i, s := range sides {
		addr, err := s.tr.Listen("127.0.0.1:0")
		if err != nil {
			r.fail("listen: %v", err)
			return r
		}
		addrs[i] = addr
	}

	cfg := core.DefaultConfig()
	cfg.Nanotime = live.Nanotime
	cat := cluster.StandardCatalog()
	rnd := rng.New(rng.Derive(0, streamFleet))
	n := 2 * spec.PeersPerSide
	infos := make([]proto.PeerInfo, n)
	for i := range infos {
		infos[i] = proto.PeerInfo{SpeedWU: 2000, BandwidthKbps: 100_000, UptimeSec: 7200,
			Services: append([]media.Transcoder(nil), cat.Ladder...)}
	}
	for o := 0; o < spec.Objects; o++ {
		f := cat.Sources[rnd.Intn(len(cat.Sources))]
		obj := media.Object{Name: fmt.Sprintf("obj-%d", o), Format: f, Hash: rnd.Uint64(),
			Bytes: int64((spec.DurationSec + 1) * float64(f.BitrateKbps) * 1000 / 8)}
		for _, h := range rnd.Perm(n)[:2] {
			infos[h].Objects = append(infos[h].Objects, obj)
		}
	}
	peers := make([]livePeer, n)
	for i := range peers {
		s := sides[i/spec.PeersPerSide]
		// Every ID hosted on the other side routes through the transport.
		sides[1-i/spec.PeersPerSide].tr.Register(env.NodeID(i), addrs[i/spec.PeersPerSide])
		boot := env.NodeID(0)
		if i == 0 {
			boot = env.NoNode
		}
		var actor env.Actor
		lp := livePeer{id: env.NodeID(i), side: s}
		if traced {
			lp.actor = newTracedPeer(cfg, infos[i], boot, s.events, nil)
			lp.peer, actor = lp.actor.peer, lp.actor
		} else {
			lp.peer = core.New(cfg, infos[i], boot, s.events)
			actor = lp.peer
		}
		peers[i] = lp
		s.rt.AddNodeWithID(env.NodeID(i), actor)
	}
	if err := waitJoined(peers, spec.JoinTimeout); err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	// Warm-up: a burst of sessions run to completion opens every
	// connection and fills the RM's profiles before anything is timed.
	for i := 0; i < spec.Warmup; i++ {
		p := peers[i%n]
		ts := proto.TaskSpec{ID: fmt.Sprintf("w-%d", i), ObjectName: fmt.Sprintf("obj-%d", i%spec.Objects),
			DeadlineMicros: spec.DeadlineMicros, DurationSec: spec.DurationSec, ChunkSec: spec.ChunkSec}
		p.call(func() { p.peer.SubmitTask(ts) })
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(spec.Drain)
	for !liveResolved(sides, nil, spec.Warmup) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	base := make([]core.EventsData, len(sides))
	for i, s := range sides {
		base[i] = s.events.Snapshot()
	}
	if !liveResolved(sides, nil, spec.Warmup) {
		r.fail("set-up: warm-up sessions unresolved")
	}
	r.Setup = time.Since(t0).Seconds()

	tasks := drawLiveTasks(spec, seed, n, cat)
	r.Out.Tasks = len(tasks)
	var layers0 layerCounts
	if traced {
		layers0 = liveProbes(peers)
	}
	tx0 := transportTotals(sides)
	m := startMeter()
	phase, phaseNano := time.Now(), live.Nanotime()
	for _, s := range sides {
		s.off = live.Nanotime()/1000 - s.rt.NowMicros()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fair []float64
	var mailbox []float64
	wg.Add(1)
	go func() { // per-peer utilisation, sampled during arrivals
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		utils := make([]float64, n)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for i, p := range peers {
					p.call(func() { utils[i] = p.peer.Profiler().Utilization() })
				}
				fair = append(fair, fairness.Index(utils))
			}
		}
	}()
	if traced {
		wg.Add(1)
		go func() { // RM mailbox wait, probed with a no-op Call
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				t := time.Now()
				peers[0].call(func() {})
				mailbox = append(mailbox, float64(time.Since(t))/1e6)
			}
		}()
	}

	// The generator is one goroutine on an open-loop schedule: a Submit
	// blocks on the origin's mailbox, so lateness is measured, and startup
	// counts from the due time, not from when the submission ran.
	var lagMax time.Duration
	for i := range tasks {
		t := &tasks[i]
		if d := time.Until(phase.Add(t.due)); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(phase.Add(t.due)); lag > lagMax {
			lagMax = lag
		}
		p := peers[t.origin]
		t.dueRt = (phaseNano+int64(t.due))/1000 - p.side.off
		p.call(func() {
			t.subRt = p.side.rt.NowMicros()
			if traced {
				p.actor.submit(t.spec)
			} else {
				p.peer.SubmitTask(t.spec)
			}
		})
	}
	close(stop)
	wg.Wait()
	deadline = time.Now().Add(spec.Drain)
	for !liveResolved(sides, base, len(tasks)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m.stop(&r)
	r.Heap = heapMB()
	if traced {
		r.Layer = liveProbes(peers).sub(layers0)
	}

	ev, miss := mergedEvents(sides, base)
	byID := make(map[string]*liveTask, len(tasks))
	for i := range tasks {
		byID[tasks[i].spec.ID] = &tasks[i]
	}
	settle(&r, ev, miss, func(rp proto.SessionReport) float64 {
		t, ok := byID[rp.TaskID]
		if !ok {
			r.fail("report for unknown task %s", rp.TaskID)
			return 0
		}
		return float64(rp.StartupMicros+t.subRt-t.dueRt) / 1e3
	})
	r.Out.Sessions = r.Out.Reported
	r.Out.Fairness = mean(fair)
	r.Out.PeerSeconds = float64(n) * r.Wall
	tx := transportTotals(sides).minus(tx0)
	if tx.DecodeErrors+tx.FrameErrors != 0 {
		r.fail("transport saw %d decode and %d frame errors", tx.DecodeErrors, tx.FrameErrors)
	}
	sort.Float64s(mailbox)
	r.Live = liveExtras{
		OfferedRate:  spec.Rate,
		AchievedRate: float64(r.Out.Reported) / r.Wall,
		LagMaxMs:     float64(lagMax) / 1e6,
		Frames:       tx.Sent,
		Batches:      tx.Batches,
		Drops:        tx.drops(),
		MailboxP99Ms: quantile(mailbox, 0.99),
	}
	return r
}

// waitJoined polls until every peer is a member and the founder's RM
// knows all of them.
func waitJoined(peers []livePeer, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		joined := 0
		for _, p := range peers {
			var ok bool
			p.call(func() { ok = p.peer.Joined() })
			if ok {
				joined++
			}
		}
		var members int
		peers[0].call(func() { members = peers[0].peer.DomainSize() })
		if joined == len(peers) && members == len(peers) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d peers joined, RM knows %d", joined, len(peers), members)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drawLiveTasks draws the open-loop schedule from the seed.
func drawLiveTasks(spec liveSpec, seed uint64, n int, cat cluster.Catalog) []liveTask {
	r := rng.New(rng.Derive(seed, streamTasks))
	var out []liveTask
	var at time.Duration
	for {
		at += time.Duration(r.Exp(1/spec.Rate) * 1e9)
		if at >= spec.Arrivals {
			return out
		}
		out = append(out, liveTask{
			due:    at,
			origin: r.Intn(n),
			spec: proto.TaskSpec{
				ID:             fmt.Sprintf("b-%d", len(out)+1),
				ObjectName:     fmt.Sprintf("obj-%d", r.Intn(spec.Objects)),
				Constraint:     cat.RequestConstraint(r, r.Bool(0.3)),
				DeadlineMicros: spec.DeadlineMicros,
				Importance:     1 + r.Intn(5),
				DurationSec:    spec.DurationSec,
				ChunkSec:       spec.ChunkSec,
			},
		})
	}
}

func liveProbes(peers []livePeer) layerCounts {
	var c layerCounts
	for _, p := range peers {
		var snap layerCounts
		p.call(func() { snap = p.actor.pr.c })
		c.add(snap)
	}
	return c
}

// liveResolved reports whether tasks submissions since base (nil: since
// start) all have an outcome.
func liveResolved(sides []*liveSide, base []core.EventsData, tasks int) bool {
	ev, _ := mergedEvents(sides, base)
	return ev.Submitted == tasks && ev.Rejected+distinctReports(ev) >= tasks
}

// mergedEvents folds both sides' outcomes since base (nil: since start)
// into one view and returns it with the chunk miss rate.
func mergedEvents(sides []*liveSide, base []core.EventsData) (core.EventsData, float64) {
	var ev core.EventsData
	var chunks, missed int
	for i, s := range sides {
		d := s.events.Snapshot()
		if base != nil {
			b := base[i]
			d.Submitted -= b.Submitted
			d.Admitted -= b.Admitted
			d.Rejected -= b.Rejected
			d.Redirected -= b.Redirected
			d.Aborted -= b.Aborted
			d.Repairs -= b.Repairs
			d.Failovers -= b.Failovers
			d.Reports = d.Reports[len(b.Reports):]
		}
		ev.Submitted += d.Submitted
		ev.Admitted += d.Admitted
		ev.Rejected += d.Rejected
		ev.Redirected += d.Redirected
		ev.Aborted += d.Aborted
		ev.Repairs += d.Repairs
		ev.Failovers += d.Failovers
		ev.Reports = append(ev.Reports, d.Reports...)
		for _, rp := range d.Reports {
			chunks += rp.Chunks
			missed += rp.Missed
		}
	}
	if chunks == 0 {
		return ev, 0
	}
	return ev, float64(missed) / float64(chunks)
}

// txTotals sums both transports' counters.
type txTotals struct {
	live.TransportStats
}

func transportTotals(sides []*liveSide) txTotals {
	var t txTotals
	t.Drops = map[string]uint64{}
	for _, s := range sides {
		st := s.tr.Stats()
		t.Sent += st.Sent
		t.Batches += st.Batches
		t.DecodeErrors += st.DecodeErrors
		t.FrameErrors += st.FrameErrors
		for k, v := range st.Drops {
			t.Drops[k] += v
		}
	}
	return t
}

func (t txTotals) minus(o txTotals) txTotals {
	t.Sent -= o.Sent
	t.Batches -= o.Batches
	t.DecodeErrors -= o.DecodeErrors
	t.FrameErrors -= o.FrameErrors
	d := map[string]uint64{}
	for k, v := range t.Drops {
		d[k] = v - o.Drops[k]
	}
	t.Drops = d
	return t
}

func (t txTotals) drops() uint64 {
	var n uint64
	for _, v := range t.Drops {
		n += v
	}
	return n
}
