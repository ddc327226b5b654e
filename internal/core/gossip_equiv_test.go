package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The reference below is the anti-entropy exchange as it was before it
// became a merge of sorted lists, kept test-only as the oracle of the
// merge: the digest read into a map, one binary search per domain, and
// every summary copied by value into replies and on install. It runs on
// a twin peer whose summaries are its own allocations, so its writes in
// place touch nothing the merged peer holds.

// refNoteRM is the former noteRM, which renamed a summary's RM in place.
func refNoteRM(s *rmState, ref proto.RMRef) *domainRecord {
	if ref.Domain == s.domain {
		return nil
	}
	rec, ok := s.domains.get(ref.Domain)
	if !ok {
		rec = &domainRecord{id: ref.Domain}
		s.domains.put(rec)
	}
	rec.rm = ref.RM
	if rec.summary != nil {
		rec.summary.RM = ref.RM
	}
	return rec
}

// refGossipTick is the former rmGossipTick, returning the digest's
// versions.
func refGossipTick(p *Peer) map[proto.DomainID]uint64 {
	st := p.rm
	p.pruneStaleSummaries()
	if len(st.domains) == 0 {
		return nil
	}
	st.bumpVersion()
	versions := make(map[proto.DomainID]uint64, len(st.domains)+1)
	versions[st.domain] = st.version
	for _, rec := range st.domains {
		if rec.summary != nil {
			versions[rec.id] = rec.summary.Version
		}
	}
	return versions
}

// refHandleGossipDigest is the former rmHandleGossipDigest, returning
// its reply.
func refHandleGossipDigest(p *Peer, msg proto.GossipDigest) ([]proto.DomainSummary, []proto.DomainID) {
	st := p.rm
	refNoteRM(st, msg.From)
	versions := make(map[proto.DomainID]uint64, len(msg.Versions))
	for _, dv := range msg.Versions {
		versions[dv.Domain] = dv.Version
	}
	var sums []proto.DomainSummary
	behind := func(d proto.DomainID, v uint64) bool {
		theirs, ok := versions[d]
		return !ok || theirs < v
	}
	offer := func(recs []*domainRecord) {
		for _, rec := range recs {
			if sum := rec.summary; sum != nil && behind(sum.Domain, sum.Version) {
				sums = append(sums, *sum)
			}
		}
	}
	own, _ := st.domains.find(st.domain)
	offer(st.domains[:own])
	if behind(st.domain, st.version) {
		sums = append(sums, *p.buildOwnSummary())
	}
	offer(st.domains[own:])
	var want []proto.DomainID
	for _, d := range sortedMapKeys(versions) {
		if d == st.domain {
			continue
		}
		if rec, ok := st.domains.get(d); !ok || rec.summary == nil || rec.summary.Version < versions[d] {
			want = append(want, d)
		}
	}
	return sums, want
}

// refHandleGossipSummaries is the former rmHandleGossipSummaries,
// returning its reply to the Want list.
func refHandleGossipSummaries(p *Peer, msg proto.GossipSummaries) []proto.DomainSummary {
	st := p.rm
	refNoteRM(st, msg.From)
	for _, ptr := range msg.Summaries {
		sum := *ptr
		if sum.Domain == st.domain {
			continue
		}
		rec, known := st.domains.get(sum.Domain)
		if known && rec.pruned > 0 {
			if sum.Version <= rec.pruned {
				continue
			}
			rec.pruned = 0
		}
		if !known || rec.summary == nil || sum.Version > rec.summary.Version {
			rec = refNoteRM(st, proto.RMRef{Domain: sum.Domain, RM: sum.RM})
			if rec.summary == nil {
				rec.summary = new(proto.DomainSummary)
			}
			*rec.summary = sum
			rec.seen = p.ctx.Now()
		}
	}
	var out []proto.DomainSummary
	for _, d := range msg.Want {
		if d == st.domain {
			out = append(out, *p.buildOwnSummary())
		} else if rec, ok := st.domains.get(d); ok && rec.summary != nil {
			out = append(out, *rec.summary)
		}
	}
	slices.SortFunc(out, func(a, b proto.DomainSummary) int { return cmp.Compare(a.Domain, b.Domain) })
	return out
}

// gossipCtx is a scripted context that keeps what its peer sends.
type gossipCtx struct {
	scriptCtx
	self env.NodeID
	sent []env.Message
}

func (c *gossipCtx) Self() env.NodeID                 { return c.self }
func (c *gossipCtx) Send(_ env.NodeID, m env.Message) { c.sent = append(c.sent, m) }

// take returns and forgets what the peer sent.
func (c *gossipCtx) take() []env.Message {
	out := c.sent
	c.sent = nil
	return out
}

// newGossipRM returns a founding RM on ctx with an empty domain table.
func newGossipRM(ctx *gossipCtx) *Peer {
	cfg := DefaultConfig()
	cfg.SummaryMaxAge = 10 * sim.Second
	p := New(cfg, proto.PeerInfo{SpeedWU: 10, BandwidthKbps: 5000}, env.NoNode, nil)
	p.Init(ctx)
	return p
}

// gossipTwins holds the merged peer and its reference twin, which see
// the same clock and the same messages.
type gossipTwins struct {
	t      *testing.T
	r      *rng.Rand
	p, q   *Peer
	pc, qc *gossipCtx
	ids    []proto.DomainID // every domain the script may name, own included
}

// newGossipTwins builds twin RMs with 0–120 other domains, the own
// domain in front of them, behind them, in the middle or at a random
// place among them, and each other domain unsummarized, tombstoned or
// holding a summary.
func newGossipTwins(t *testing.T, r *rng.Rand) *gossipTwins {
	g := &gossipTwins{t: t, r: r,
		pc: &gossipCtx{scriptCtx: scriptCtx{r: rng.New(1)}}, qc: &gossipCtx{scriptCtx: scriptCtx{r: rng.New(1)}}}
	g.p, g.q = newGossipRM(g.pc), newGossipRM(g.qc)
	n := r.Intn(121)
	seen := map[proto.DomainID]bool{}
	for len(g.ids) < n+1 {
		if d := proto.DomainID(r.Intn(4*n + 8)); !seen[d] {
			seen[d] = true
			g.ids = append(g.ids, d)
		}
	}
	slices.Sort(g.ids)
	own := [4]int{0, n, n / 2, r.Intn(n + 1)}[r.Intn(4)]
	version := uint64(1 + r.Intn(30))
	for _, p := range []*Peer{g.p, g.q} {
		p.domain, p.rm.domain, p.rm.version = g.ids[own], g.ids[own], version
	}
	for i, d := range g.ids {
		if i == own {
			continue
		}
		rec := domainRecord{id: d, rm: env.NodeID(1000 + r.Intn(5000))}
		var sum *proto.DomainSummary
		switch r.Intn(3) {
		case 0: // known, never summarized
		case 1:
			rec.pruned = uint64(1 + r.Intn(20))
		default:
			sum = g.summary(d, uint64(1+r.Intn(30)))
			sum.RM = rec.rm
			rec.seen = sim.Time(r.Intn(5)) * sim.Second
		}
		for _, p := range []*Peer{g.p, g.q} {
			twin := rec
			if sum != nil {
				own := *sum
				twin.summary = &own
			}
			p.rm.domains = append(p.rm.domains, &twin)
		}
	}
	return g
}

// summary returns a fresh summary of domain d at version v.
func (g *gossipTwins) summary(d proto.DomainID, v uint64) *proto.DomainSummary {
	r := g.r
	return &proto.DomainSummary{Domain: d, RM: env.NodeID(1000 + r.Intn(5000)), Version: v,
		NumPeers: 1 + r.Intn(8), AvgUtil: float64(r.Intn(100)) / 100,
		ObjectBloom: []byte{byte(r.Intn(256)), byte(d)}, ServiceBloom: []byte{byte(v)}, BloomM: 16, BloomK: 2}
}

// held returns the version of d's summary the merged peer holds (its own
// for the own domain), the tombstone version, and whether it holds one.
func (g *gossipTwins) held(d proto.DomainID) (uint64, uint64, bool) {
	st := g.p.rm
	if d == st.domain {
		return st.version, 0, true
	}
	if rec, ok := st.domains.get(d); ok {
		if rec.summary != nil {
			return rec.summary.Version, rec.pruned, true
		}
		return 0, rec.pruned, false
	}
	return 0, 0, false
}

// version picks a version for d relative to what the merged peer holds:
// older, equal or newer, or at or below its tombstone.
func (g *gossipTwins) version(d proto.DomainID) uint64 {
	v, pruned, ok := g.held(d)
	r := g.r
	switch {
	case pruned > 0 && r.Intn(2) == 0:
		return uint64(1 + r.Intn(int(pruned)))
	case pruned > 0:
		return pruned + uint64(r.Intn(3))
	case !ok:
		return uint64(1 + r.Intn(30))
	}
	switch r.Intn(3) {
	case 0:
		return max(v-1, 1)
	case 1:
		return v
	default:
		return v + uint64(1+r.Intn(3))
	}
}

// pick returns a domain the script names: mostly known ones, some new.
func (g *gossipTwins) pick() proto.DomainID {
	if g.r.Intn(8) == 0 {
		return proto.DomainID(g.r.Intn(4*len(g.ids) + 8))
	}
	return g.ids[g.r.Intn(len(g.ids))]
}

// from returns a random sender.
func (g *gossipTwins) from() proto.RMRef {
	return proto.RMRef{Domain: g.pick(), RM: env.NodeID(1000 + g.r.Intn(5000))}
}

// disorder shuffles or duplicates entries of an ascending list, or
// leaves it ascending, as a hostile or buggy sender might.
func disorder[E any](r *rng.Rand, list []E) []E {
	switch r.Intn(4) {
	case 0:
		r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	case 1:
		if len(list) > 0 {
			i := r.Intn(len(list))
			list = slices.Insert(list, i, list[i])
		}
	}
	return list
}

// digest sends both peers one random digest, which may name domains the
// peers do not know, and compares the replies.
func (g *gossipTwins) digest(where string) {
	st := g.p.rm
	domains := slices.Clone(g.ids)
	for i := g.r.Intn(4); i > 0; i-- {
		domains = append(domains, g.pick())
	}
	slices.Sort(domains)
	var vs []proto.DomainVersion
	for _, d := range slices.Compact(domains) {
		if g.r.Intn(3) > 0 && (d != st.domain || g.r.Intn(2) == 0) {
			vs = append(vs, proto.DomainVersion{Domain: d, Version: g.version(d)})
		}
	}
	msg := proto.GossipDigest{From: g.from(), Versions: vs}
	g.p.rmHandleGossipDigest(7, msg)
	sent := g.pc.take()
	wantSums, wantWant := refHandleGossipDigest(g.q, msg)
	if len(sent) != 1 {
		g.t.Fatalf("%s: digest answered with %d messages, want 1", where, len(sent))
	}
	reply := sent[0].(proto.GossipSummaries)
	g.sameSummaries(where+" digest reply", reply.Summaries, wantSums)
	if !slices.Equal(reply.Want, wantWant) {
		g.t.Fatalf("%s: digest Want = %v, want %v", where, reply.Want, wantWant)
	}
}

// summaries sends both peers one random summaries message and compares
// the replies to its Want list.
func (g *gossipTwins) summaries(where string) {
	var sums []*proto.DomainSummary
	var want []proto.DomainID
	for _, d := range g.ids {
		if g.r.Intn(3) == 0 {
			sums = append(sums, g.summary(d, g.version(d)))
		}
		if g.r.Intn(3) == 0 {
			want = append(want, d)
		}
	}
	if g.r.Intn(4) == 0 {
		d := g.pick()
		sums = append(sums, g.summary(d, g.version(d)))
		slices.SortFunc(sums, func(a, b *proto.DomainSummary) int { return cmp.Compare(a.Domain, b.Domain) })
	}
	msg := proto.GossipSummaries{From: g.from(), Summaries: disorder(g.r, sums), Want: disorder(g.r, want)}
	g.p.rmHandleGossipSummaries(7, msg)
	sent := g.pc.take()
	wantSums := refHandleGossipSummaries(g.q, msg)
	var got []*proto.DomainSummary
	switch {
	case len(sent) == 1:
		got = sent[0].(proto.GossipSummaries).Summaries
		if len(got) == 0 {
			g.t.Fatalf("%s: empty summaries reply sent", where)
		}
	case len(sent) > 1:
		g.t.Fatalf("%s: summaries answered with %d messages", where, len(sent))
	}
	g.sameSummaries(where+" want reply", got, wantSums)
}

// tick runs a gossip round on both peers and compares the digests.
func (g *gossipTwins) tick(where string) {
	g.p.rmGossipTick()
	sent := g.pc.take()
	want := refGossipTick(g.q)
	if want == nil {
		if len(sent) != 0 {
			g.t.Fatalf("%s: tick with no domains sent %v", where, sent)
		}
		return
	}
	vs := sent[0].(proto.GossipDigest).Versions
	got := make([]proto.DomainID, len(vs))
	for i, dv := range vs {
		got[i] = dv.Domain
		if want[dv.Domain] != dv.Version {
			g.t.Fatalf("%s: digest holds %d at version %d, want %d", where, dv.Domain, dv.Version, want[dv.Domain])
		}
	}
	if !slices.Equal(got, sortedMapKeys(want)) {
		g.t.Fatalf("%s: digest domains %v, want %v", where, got, sortedMapKeys(want))
	}
}

func (g *gossipTwins) sameSummaries(where string, got []*proto.DomainSummary, want []proto.DomainSummary) {
	g.t.Helper()
	if len(got) != len(want) {
		g.t.Fatalf("%s: %d summaries, want %d", where, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], want[i]) {
			g.t.Fatalf("%s: summary %d = %+v, want %+v", where, i, *got[i], want[i])
		}
	}
}

// sameTables compares the two peers' domain tables record by record.
func (g *gossipTwins) sameTables(where string) {
	g.t.Helper()
	got, want := g.p.rm.domains, g.q.rm.domains
	if len(got) != len(want) {
		g.t.Fatalf("%s: %d domains, want %d", where, len(got), len(want))
	}
	for i, a := range got {
		b := want[i]
		if a.id != b.id || a.rm != b.rm || a.seen != b.seen || a.pruned != b.pruned || (a.summary == nil) != (b.summary == nil) {
			g.t.Fatalf("%s: domain %d = %+v, want %+v", where, i, *a, *b)
		}
		if a.summary != nil && !reflect.DeepEqual(*a.summary, *b.summary) {
			g.t.Fatalf("%s: domain %d summary = %+v, want %+v", where, a.id, *a.summary, *b.summary)
		}
	}
}

// TestGossipMatchesReference drives random RM states through random
// digests, summaries, gossip rounds, takeovers and clock steps, and
// requires the merged handlers to answer and install exactly what the
// map-based reference does.
func TestGossipMatchesReference(t *testing.T) {
	r := rng.New(28)
	for trial := 0; trial < 300; trial++ {
		g := newGossipTwins(t, r)
		for step := 0; step < 40; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch r.Intn(6) {
			case 0, 1:
				g.digest(where)
			case 2, 3:
				g.summaries(where)
			case 4:
				g.tick(where)
			default:
				// A takeover announce, or time passing past the prune horizon.
				if r.Intn(2) == 0 {
					ref := g.from()
					g.p.rm.noteRM(ref)
					refNoteRM(g.q.rm, ref)
				} else {
					step := sim.Time(r.Intn(8)) * sim.Second
					g.pc.now += step
					g.qc.now += step
				}
			}
			g.sameTables(where)
		}
	}
}

// TestGossipSharedSummaryCopyOnWrite checks the sharing rule: after RMs
// B and C both installed A's summary (the very value A sent), a takeover
// announce for A's domain that reaches B renames the RM in B's copy only.
func TestGossipSharedSummaryCopyOnWrite(t *testing.T) {
	ctxs := map[env.NodeID]*gossipCtx{}
	rms := map[env.NodeID]*Peer{}
	for _, id := range []env.NodeID{1, 2, 3} {
		ctxs[id] = &gossipCtx{scriptCtx: scriptCtx{r: rng.New(uint64(id))}, self: id}
		rms[id] = newGossipRM(ctxs[id])
		rms[id].domain, rms[id].rm.domain = proto.DomainID(id), proto.DomainID(id)
	}
	a, b, c := rms[1], rms[2], rms[3]
	domA := a.rm.domain
	a.rm.noteRM(proto.RMRef{Domain: 2, RM: 2})
	c.rm.noteRM(proto.RMRef{Domain: 2, RM: 2})
	// exchange runs one push-pull round from one RM to the only one it
	// knows.
	exchange := func(from, to env.NodeID) {
		rms[from].rmGossipTick()
		rms[to].rmHandleGossipDigest(from, ctxs[from].take()[0].(proto.GossipDigest))
		for _, m := range ctxs[to].take() {
			rms[from].rmHandleGossipSummaries(to, m.(proto.GossipSummaries))
		}
		for _, m := range ctxs[from].take() {
			rms[to].rmHandleGossipSummaries(from, m.(proto.GossipSummaries))
		}
		ctxs[to].take()
	}
	exchange(1, 2) // B learns A's summary from A
	exchange(3, 2) // C learns it from B
	recB, _ := b.rm.domains.get(domA)
	recC, _ := c.rm.domains.get(domA)
	if recB == nil || recC == nil || recB.summary == nil || recB.summary != recC.summary {
		t.Fatalf("B and C do not share A's summary: B %+v, C %+v", recB, recC)
	}
	sent := recB.summary
	if sent.RM != 1 {
		t.Fatalf("A's summary names RM %d, want 1", sent.RM)
	}

	b.Receive(9, proto.TakeoverAnnounce{Domain: domA, NewRM: 9})
	if recB.rm != 9 || recB.summary.RM != 9 {
		t.Fatalf("B's record of A's domain = rm %d, summary rm %d; want 9, 9", recB.rm, recB.summary.RM)
	}
	if sent.RM != 1 || recC.summary != sent {
		t.Fatalf("the takeover at B reached the shared summary: A sent rm %d, C holds rm %d", sent.RM, recC.summary.RM)
	}
	if recB.summary == sent || recB.summary.Version != sent.Version {
		t.Fatal("B's renamed summary is not a copy of the shared one")
	}
}
