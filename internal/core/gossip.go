package core

import (
	"sort"

	"repro/internal/bloom"
	"repro/internal/env"
	"repro/internal/fairness"
	"repro/internal/proto"
)

// Inter-domain propagation (§3.1, §4.4): each RM keeps Bloom-filter
// summaries of the objects and services available in other domains,
// "updated lazily using a gossiping protocol". The protocol is a classic
// push-pull anti-entropy: digest -> missing summaries -> wanted
// summaries.
//
// Concurrency audit: the gossip state (rmState.domains) is
// actor-confined like the rest of rmState — handlers here run only on
// the owning peer's serialized loop, so no mutex or "guarded by mu"
// annotation is warranted.

// buildOwnSummary constructs this domain's current summary.
func (p *Peer) buildOwnSummary() proto.DomainSummary {
	st := p.rm
	objects := bloom.New(p.cfg.BloomM, p.cfg.BloomK)
	services := bloom.New(p.cfg.BloomM, p.cfg.BloomK)
	var utilSum float64
	for _, rec := range st.peers {
		for _, o := range rec.info.Objects {
			objects.AddString(o.Name)
		}
		for _, s := range rec.info.Services {
			services.AddString(s.Key())
		}
		utilSum += rec.util()
	}
	avg := 0.0
	if len(st.peers) > 0 {
		avg = utilSum / float64(len(st.peers))
	}
	return proto.DomainSummary{
		Domain:       st.domain,
		RM:           p.ctx.Self(),
		Version:      st.version,
		NumPeers:     len(st.peers),
		AvgUtil:      avg,
		ObjectBloom:  objects.Bytes(),
		ServiceBloom: services.Bytes(),
		BloomM:       p.cfg.BloomM,
		BloomK:       p.cfg.BloomK,
	}
}

// bloomFrom reconstructs a summary's object filter.
func bloomFrom(sum proto.DomainSummary) (*bloom.Filter, error) {
	return bloom.FromBytes(sum.ObjectBloom, sum.BloomM, sum.BloomK)
}

// serviceBloomFrom reconstructs a summary's service filter.
func serviceBloomFrom(sum proto.DomainSummary) (*bloom.Filter, error) {
	return bloom.FromBytes(sum.ServiceBloom, sum.BloomM, sum.BloomK)
}

// summarized returns the records of the domains whose summary this RM
// holds, in domain order.
func (s *rmState) summarized() []*domainRecord {
	var out []*domainRecord
	for _, rec := range s.domains {
		if rec.summary != nil {
			out = append(out, rec)
		}
	}
	return out
}

// rmGossipTick opens one anti-entropy round with a random known RM.
func (p *Peer) rmGossipTick() {
	st := p.rm
	if st == nil {
		return
	}
	p.pruneStaleSummaries()
	if len(st.domains) == 0 {
		return
	}
	// Refresh our own load picture every round so AvgUtil propagates.
	st.bumpVersion()
	target := st.domains[p.ctx.Rand().Intn(len(st.domains))].rm
	versions := map[proto.DomainID]uint64{st.domain: st.version}
	for _, rec := range st.domains {
		if rec.summary != nil {
			versions[rec.id] = rec.summary.Version
		}
	}
	p.ctx.Send(target, proto.GossipDigest{
		From:     proto.RMRef{Domain: st.domain, RM: p.ctx.Self()},
		Versions: versions,
	})
}

// rmHandleGossipDigest answers with summaries the digest lacks and asks
// for ones where the sender is ahead.
func (p *Peer) rmHandleGossipDigest(from env.NodeID, msg proto.GossipDigest) {
	st := p.rm
	if st == nil {
		return
	}
	st.noteRM(msg.From)
	reply := proto.GossipSummaries{From: proto.RMRef{Domain: st.domain, RM: p.ctx.Self()}}
	// Summaries I have that the sender lacks or holds stale, in domain
	// order with my own in its place.
	behind := func(d proto.DomainID, v uint64) bool {
		theirs, ok := msg.Versions[d]
		return !ok || theirs < v
	}
	offer := func(recs []*domainRecord) {
		for _, rec := range recs {
			if sum := rec.summary; sum != nil && behind(sum.Domain, sum.Version) {
				reply.Summaries = append(reply.Summaries, *sum)
			}
		}
	}
	own, _ := st.domains.find(st.domain)
	offer(st.domains[:own])
	if behind(st.domain, st.version) {
		reply.Summaries = append(reply.Summaries, p.buildOwnSummary())
	}
	offer(st.domains[own:])
	// Domains where the sender is ahead of me.
	for _, d := range sortedMapKeys(msg.Versions) {
		if d == st.domain {
			continue
		}
		if rec, ok := st.domains.get(d); !ok || rec.summary == nil || rec.summary.Version < msg.Versions[d] {
			reply.Want = append(reply.Want, d)
		}
	}
	p.ctx.Send(from, reply)
}

// rmHandleGossipSummaries installs received summaries and completes the
// push-pull exchange.
func (p *Peer) rmHandleGossipSummaries(from env.NodeID, msg proto.GossipSummaries) {
	st := p.rm
	if st == nil {
		return
	}
	st.noteRM(msg.From)
	for _, sum := range msg.Summaries {
		if sum.Domain == st.domain {
			continue
		}
		// A version at or below the tombstone is a stale copy bouncing back
		// from a peer that has not pruned yet; reinstalling it would let
		// dead domains ping-pong between RMs forever. A genuinely live (or
		// revived) domain bumps its version every gossip round and climbs
		// past the tombstone quickly.
		rec, known := st.domains.get(sum.Domain)
		if known && rec.pruned > 0 {
			if sum.Version <= rec.pruned {
				continue
			}
			rec.pruned = 0
		}
		if !known || rec.summary == nil || sum.Version > rec.summary.Version {
			rec = st.noteRM(proto.RMRef{Domain: sum.Domain, RM: sum.RM})
			if rec.summary == nil {
				rec.summary = new(proto.DomainSummary)
			}
			*rec.summary = sum // replies copy summaries out, so none aliases this one
			// Freshness = version advancement. An equal-version copy is NOT
			// evidence of life: live RMs bump their version every gossip
			// tick, so a frozen version is exactly the death signal.
			rec.seen = p.ctx.Now()
		}
	}
	if len(msg.Want) == 0 {
		return
	}
	reply := proto.GossipSummaries{From: proto.RMRef{Domain: st.domain, RM: p.ctx.Self()}}
	for _, d := range msg.Want {
		if d == st.domain {
			reply.Summaries = append(reply.Summaries, p.buildOwnSummary())
		} else if rec, ok := st.domains.get(d); ok && rec.summary != nil {
			reply.Summaries = append(reply.Summaries, *rec.summary)
		}
	}
	if len(reply.Summaries) > 0 {
		sort.Slice(reply.Summaries, func(i, j int) bool { return reply.Summaries[i].Domain < reply.Summaries[j].Domain })
		p.ctx.Send(from, reply)
	}
}

// pruneStaleSummaries drops gossiped summaries not refreshed within
// Config.SummaryMaxAge (zero disables aging), leaving a tombstone. Only
// the cached summary ages out; the domain and its RM stay known, so the
// domain is re-learned on the next exchange if it still exists.
func (p *Peer) pruneStaleSummaries() {
	st := p.rm
	maxAge := p.cfg.SummaryMaxAge
	if st == nil || maxAge <= 0 {
		return
	}
	for _, rec := range st.domains {
		if rec.summary != nil && p.ctx.Now()-rec.seen > maxAge {
			rec.pruned = rec.summary.Version
			rec.summary = nil
		}
	}
}

// SummaryStaleness reports, per known remote domain, how far behind this
// RM's copy is (in versions) given the authoritative RMs — an E8 metric
// computed by the harness, which can see all nodes.
func (p *Peer) SummaryVersions() map[proto.DomainID]uint64 {
	if p.rm == nil {
		return nil
	}
	out := make(map[proto.DomainID]uint64)
	for _, rec := range p.rm.summarized() {
		out[rec.id] = rec.summary.Version
	}
	return out
}

// OwnVersion returns this RM's summary version.
func (p *Peer) OwnVersion() uint64 {
	if p.rm == nil {
		return 0
	}
	return p.rm.version
}

// fairnessIndex is a tiny alias keeping rm.go free of the import.
func fairnessIndex(loads []float64) float64 { return fairness.Index(loads) }
