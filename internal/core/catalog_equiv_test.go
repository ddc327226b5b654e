package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/bloom"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// refCatalog is the RM catalog state as it was before it became a cache,
// kept test-only as the oracle of the cached one: G_r and a format index
// rebuilt from scratch whenever membership changed and every
// graphRefreshPeriod, and Bloom filters re-hashed for every summary.
type refCatalog struct {
	gr      *graph.ResourceGraph
	formats map[string]media.Format // vertex key -> format
	builtAt sim.Time
	dirty   bool
	version uint64 // the RM's summary version at the last look
}

// rebuild is the former rebuildGraph.
func (r *refCatalog) rebuild(p *Peer) {
	st := p.rm
	r.builtAt = p.ctx.Now()
	r.gr = graph.NewResourceGraph()
	r.formats = make(map[string]media.Format)
	addFormat := func(f media.Format) graph.VertexID {
		v := r.gr.AddVertex(f.Key(), f.String())
		r.formats[f.Key()] = f
		return v
	}
	for i, rec := range st.peers {
		for _, obj := range rec.info.Objects {
			addFormat(obj.Format)
		}
		for _, tr := range rec.info.Services {
			from := addFormat(tr.From)
			to := addFormat(tr.To)
			r.gr.AddEdge(graph.Edge{
				From:          from,
				To:            to,
				Peer:          i,
				Service:       tr.Key(),
				Work:          tr.WorkUnits(),
				LatencyMicros: rec.edgeLatencyMicros(p.cfg.LatencyEstimateMicros),
			})
		}
	}
	r.dirty = false
}

// observe marks the reference dirty when the RM's summary version moved:
// the version is bumped exactly where the former code dirtied its graph
// (the script never runs a gossip round, the only other bump).
func (r *refCatalog) observe(st *rmState) {
	if st.version != r.version {
		r.version, r.dirty = st.version, true
	}
}

// fresh is the former freshGraph.
func (r *refCatalog) fresh(p *Peer) {
	if r.dirty || p.ctx.Now()-r.builtAt > graphRefreshPeriod {
		r.rebuild(p)
	}
}

// goals is the former constraintGoals.
func (r *refCatalog) goals(c media.Constraint) []graph.VertexID {
	var goals []graph.VertexID
	for _, key := range sortedMapKeys(r.formats) {
		if r.formats[key].Satisfies(c) {
			if v, ok := r.gr.Lookup(key); ok {
				goals = append(goals, v)
			}
		}
	}
	sort.Slice(goals, func(i, j int) bool { return goals[i] < goals[j] })
	return goals
}

// refBlooms is the Bloom half of the former buildOwnSummary.
func refBlooms(p *Peer) (objects, services []byte) {
	o := bloom.New(p.cfg.BloomM, p.cfg.BloomK)
	s := bloom.New(p.cfg.BloomM, p.cfg.BloomK)
	for _, rec := range p.rm.peers {
		for _, obj := range rec.info.Objects {
			o.AddString(obj.Name)
		}
		for _, tr := range rec.info.Services {
			s.AddString(tr.Key())
		}
	}
	return o.Bytes(), s.Bytes()
}

// checkGraph fails unless the RM's cached graph and formats equal the
// reference's exactly.
func (r *refCatalog) checkGraph(t *testing.T, st *rmState, step string) {
	t.Helper()
	got, want := st.gr, r.gr
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: graph has %d vertices, %d edges; reference %d, %d", step,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if len(st.formats) != got.NumVertices() {
		t.Fatalf("%s: %d formats for %d vertices", step, len(st.formats), got.NumVertices())
	}
	for v := range want.NumVertices() {
		id := graph.VertexID(v)
		if g, w := got.Vertex(id), want.Vertex(id); g != w {
			t.Fatalf("%s: vertex %d = %+v, reference %+v", step, v, g, w)
		}
		if g, w := st.formats[v], r.formats[want.Vertex(id).Key]; g != w {
			t.Fatalf("%s: format of vertex %d = %v, reference %v", step, v, g, w)
		}
		if g, w := got.Out(id), want.Out(id); !slices.Equal(g, w) {
			t.Fatalf("%s: out-edges of vertex %d = %v, reference %v", step, v, g, w)
		}
	}
	for e := range want.NumEdges() {
		if g, w := got.Edge(graph.EdgeID(e)), want.Edge(graph.EdgeID(e)); g != w {
			t.Fatalf("%s: edge %d = %+v, reference %+v", step, e, g, w)
		}
	}
	for _, c := range equivConstraints {
		if g, w := st.constraintGoals(c), r.goals(c); !slices.Equal(g, w) {
			t.Fatalf("%s: goals for %v = %v, reference %v", step, c, g, w)
		}
	}
}

var equivConstraints = []media.Constraint{
	{},
	{Codecs: []media.Codec{media.MPEG4}},
	{Codecs: []media.Codec{media.H263, media.MPEG2}, MaxWidth: 640, MaxHeight: 480},
	{MinBitrateKbps: 100, MaxBitrateKbps: 600},
}

// scriptCtx is a hand-stepped environment: the script sets the clock,
// sends vanish and timers never fire (the script calls the handlers
// they would run).
type scriptCtx struct {
	now sim.Time
	r   *rng.Rand
}

func (c *scriptCtx) Now() sim.Time                     { return c.now }
func (c *scriptCtx) After(sim.Time, func()) env.Cancel { return env.Cancel{} }
func (c *scriptCtx) Self() env.NodeID                  { return 0 }
func (c *scriptCtx) Send(env.NodeID, env.Message)      {}
func (c *scriptCtx) Rand() *rng.Rand                   { return c.r }
func (c *scriptCtx) Logf(string, ...any)               {}

var (
	equivFormats = func() []media.Format {
		var out []media.Format
		for _, cd := range []media.Codec{media.MPEG2, media.MPEG4, media.H263} {
			for _, wh := range [][2]int{{320, 240}, {640, 480}, {800, 600}} {
				for _, kbps := range []int{64, 128, 512} {
					out = append(out, media.Format{Codec: cd, Width: wh[0], Height: wh[1], BitrateKbps: kbps})
				}
			}
		}
		return out
	}()
	// Clock steps on both sides of graphRefreshPeriod.
	equivSteps = []sim.Time{0, 100 * sim.Millisecond, sim.Second, graphRefreshPeriod - 1,
		graphRefreshPeriod, graphRefreshPeriod + 1, 7 * sim.Second}
)

func equivObject(r *rng.Rand) media.Object {
	return media.Object{Name: fmt.Sprintf("obj-%d", r.Intn(12)),
		Format: equivFormats[r.Intn(len(equivFormats))], Bytes: 1 << 20}
}

func equivService(r *rng.Rand) media.Transcoder {
	from := equivFormats[r.Intn(len(equivFormats))]
	to := equivFormats[r.Intn(len(equivFormats))]
	return media.Transcoder{From: from, To: to}
}

// mutate returns info with one catalog entry added, replaced or removed,
// in fresh slices, the way a member's mutators change it.
func mutate(r *rng.Rand, info proto.PeerInfo) proto.PeerInfo {
	info.Objects = slices.Clone(info.Objects)
	info.Services = slices.Clone(info.Services)
	switch r.Intn(5) {
	case 0:
		info.Objects = append(info.Objects, equivObject(r))
	case 1:
		if len(info.Objects) > 0 {
			i := r.Intn(len(info.Objects))
			info.Objects[i].Format = equivFormats[r.Intn(len(equivFormats))]
		}
	case 2:
		if len(info.Objects) > 0 {
			info.Objects = slices.Delete(info.Objects, 0, 1)
		}
	case 3:
		info.Services = append(info.Services, equivService(r))
	default:
		if len(info.Services) > 0 {
			i := r.Intn(len(info.Services))
			info.Services = slices.Delete(info.Services, i, i+1)
		}
	}
	return info
}

// TestCatalogCacheMatchesReference drives an RM through seeded scripts of
// joins, leaves, heartbeat-timeout removals, catalog changes on the RM
// and its members, heartbeat acks that move RTTs and clock steps, and
// requires the cached graph, formats, goals and own Bloom filters to
// equal the former rebuild-everything code after every freshGraph and
// buildOwnSummary.
func TestCatalogCacheMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runCatalogScript(t, seed) })
	}
}

func runCatalogScript(t *testing.T, seed uint64) {
	r := rng.New(seed)
	ctx := &scriptCtx{r: r.Split()}
	cfg := DefaultConfig()
	cfg.MaxDomainPeers = 1 << 10
	self := proto.PeerInfo{SpeedWU: 10, BandwidthKbps: 5000,
		Objects: []media.Object{equivObject(r)}, Services: []media.Transcoder{equivService(r)}}
	p := New(cfg, self, env.NoNode, nil)
	p.Init(ctx)
	st := p.rm
	ref := &refCatalog{}
	ref.observe(st)
	members := map[env.NodeID]proto.PeerInfo{}
	member := func() (env.NodeID, bool) {
		if len(st.peers) < 2 {
			return 0, false
		}
		return st.peers[1+r.Intn(len(st.peers)-1)].id, true
	}
	// Busy phases change membership and catalogs; quiet ones only move
	// RTTs and the clock, so a clean graph's latencies go stale.
	quietOps := []int{5, 7, 8, 9, 9, 11}
	for step := 0; step < 600; step++ {
		where := fmt.Sprintf("seed %d step %d", seed, step)
		quiet := step/50%2 == 1
		op := r.Intn(12)
		if quiet {
			op = quietOps[r.Intn(len(quietOps))]
		}
		switch op {
		case 0, 1: // a newcomer joins
			id := env.NodeID(1 + r.Intn(24))
			info := proto.PeerInfo{ID: id, SpeedWU: 5 + float64(r.Intn(10)), BandwidthKbps: 5000}
			for range r.Intn(3) {
				info.Objects = append(info.Objects, equivObject(r))
			}
			for range r.Intn(4) {
				info.Services = append(info.Services, equivService(r))
			}
			members[id] = info
			p.rmHandleJoin(id, proto.Join{Info: info})
		case 2: // a member changes its catalog and re-joins
			if id, ok := member(); ok {
				members[id] = mutate(r, members[id])
				p.rmHandleJoin(id, proto.Join{Info: members[id]})
			}
		case 3: // a join retry: only the uptime differs
			if id, ok := member(); ok {
				info := members[id]
				info.UptimeSec += 10
				p.rmHandleJoin(id, proto.Join{Info: info})
			}
		case 4: // a graceful leave
			if id, ok := member(); ok {
				p.rmHandleLeave(id)
			}
		case 5: // a heartbeat round: when busy, one member silent past the limit; the rest ack after an RTT
			silent := env.NoNode
			if !quiet {
				silent, _ = member()
			}
			if rec, ok := st.peers.get(silent); ok && silent != 0 {
				rec.missed = cfg.HeartbeatMisses
			}
			p.rmHeartbeatTick()
			ctx.now += sim.Time(1+r.Intn(80)) * sim.Millisecond
			for _, rec := range slices.Clone(st.peers) {
				if rec.id != 0 && rec.id != silent && (quiet || r.Intn(3) > 0) {
					p.rmHandleHeartbeatAck(rec.id, proto.HeartbeatAck{Seq: st.hbSeq})
				}
			}
		case 6: // the RM's own catalog changes
			switch r.Intn(4) {
			case 0:
				p.AddObject(equivObject(r))
			case 1:
				p.RemoveObject(fmt.Sprintf("obj-%d", r.Intn(12)))
			case 2:
				p.AddService(equivService(r))
			default:
				if svcs := p.info.Services; len(svcs) > 0 {
					p.RemoveService(svcs[r.Intn(len(svcs))].Key())
				}
			}
		case 7, 8: // the clock moves
			ctx.now += equivSteps[r.Intn(len(equivSteps))]
		case 9: // an admission, repair or migration brings G_r up to date
			ref.observe(st)
			p.freshGraph()
			ref.fresh(p)
			ref.checkGraph(t, st, where+" freshGraph")
		case 10: // a harness samples the domain's fairness
			ref.observe(st)
			p.DomainFairness()
			if ref.dirty {
				ref.rebuild(p)
			}
		default: // a gossip partner is behind on this domain
			sum := p.buildOwnSummary()
			objects, services := refBlooms(p)
			if !bytes.Equal(sum.ObjectBloom, objects) || !bytes.Equal(sum.ServiceBloom, services) {
				t.Fatalf("%s: own summary filters differ from a fresh build", where)
			}
		}
		ref.observe(st)
	}
}
