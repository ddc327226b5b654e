package core

import (
	"cmp"
	"slices"

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

// buildOwnSummary constructs this domain's current summary, a fresh
// value on every call: AvgUtil is recomputed each time, and a summary
// once sent is never written again. The Bloom filters are rebuilt only
// after a catalog or membership change.
func (p *Peer) buildOwnSummary() *proto.DomainSummary {
	st := p.rm
	if st.objectBloom == nil {
		objects := bloom.New(p.cfg.BloomM, p.cfg.BloomK)
		services := bloom.New(p.cfg.BloomM, p.cfg.BloomK)
		for _, rec := range st.peers {
			for _, o := range rec.info.Objects {
				objects.AddString(o.Name)
			}
			for _, s := range rec.info.Services {
				services.AddString(s.Key())
			}
		}
		st.objectBloom, st.serviceBloom = objects.Bytes(), services.Bytes()
	}
	var utilSum float64
	for _, rec := range st.peers {
		utilSum += rec.util()
	}
	avg := 0.0
	if len(st.peers) > 0 {
		avg = utilSum / float64(len(st.peers))
	}
	return &proto.DomainSummary{
		Domain:       st.domain,
		RM:           p.ctx.Self(),
		Version:      st.version,
		NumPeers:     len(st.peers),
		AvgUtil:      avg,
		ObjectBloom:  st.objectBloom,
		ServiceBloom: st.serviceBloom,
		BloomM:       p.cfg.BloomM,
		BloomK:       p.cfg.BloomK,
	}
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

// rmGossipTick opens one anti-entropy round with a random known RM. The
// digest lists the versions held in domain order, the RM's own in its
// place, in one walk of the domain table.
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
	versions := make([]proto.DomainVersion, 0, len(st.domains)+1)
	st.withOwn(func(rec *domainRecord) {
		if rec == nil {
			versions = append(versions, proto.DomainVersion{Domain: st.domain, Version: st.version})
		} else if rec.summary != nil {
			versions = append(versions, proto.DomainVersion{Domain: rec.id, Version: rec.summary.Version})
		}
	})
	p.ctx.Send(target, proto.GossipDigest{
		From:     proto.RMRef{Domain: st.domain, RM: p.ctx.Self()},
		Versions: versions,
	})
}

// rmHandleGossipDigest answers with summaries the digest lacks and asks
// for ones where the sender is ahead. Both the digest and the domain
// table ascend by domain, so each answer is one merge of the two.
func (p *Peer) rmHandleGossipDigest(from env.NodeID, msg proto.GossipDigest) {
	st := p.rm
	if st == nil {
		return
	}
	st.noteRM(msg.From)
	reply := proto.GossipSummaries{From: proto.RMRef{Domain: st.domain, RM: p.ctx.Self()}}
	// Summaries I have that the sender lacks or holds stale, in domain
	// order with my own in its place. behind is asked in ascending domain
	// order, so its cursor over the digest only moves forward.
	theirs := msg.Versions
	behind := func(d proto.DomainID, v uint64) bool {
		for len(theirs) > 0 && theirs[0].Domain < d {
			theirs = theirs[1:]
		}
		return len(theirs) == 0 || theirs[0].Domain != d || theirs[0].Version < v
	}
	st.withOwn(func(rec *domainRecord) {
		var sum *proto.DomainSummary
		switch {
		case rec == nil && behind(st.domain, st.version):
			sum = p.buildOwnSummary()
		case rec != nil && rec.summary != nil && behind(rec.summary.Domain, rec.summary.Version):
			sum = rec.summary
		default:
			return
		}
		if reply.Summaries == nil {
			reply.Summaries = make([]*proto.DomainSummary, 0, len(st.domains)+1)
		}
		reply.Summaries = append(reply.Summaries, sum)
	})
	// Domains where the sender is ahead of me.
	at := 0
	for _, dv := range msg.Versions {
		if dv.Domain == st.domain {
			continue
		}
		var known bool
		at, known = st.domains.seek(at, dv.Domain)
		if !known || st.domains[at].summary == nil || st.domains[at].summary.Version < dv.Version {
			reply.Want = append(reply.Want, dv.Domain)
		}
	}
	p.ctx.Send(from, reply)
}

// rmHandleGossipSummaries installs received summaries and completes the
// push-pull exchange. An installed summary is the received pointer
// itself: summaries are immutable once sent (see proto.DomainSummary).
func (p *Peer) rmHandleGossipSummaries(from env.NodeID, msg proto.GossipSummaries) {
	st := p.rm
	if st == nil {
		return
	}
	st.noteRM(msg.From)
	at := 0
	for _, sum := range msg.Summaries {
		if sum.Domain == st.domain {
			continue
		}
		var known bool
		at, known = st.domains.seek(at, sum.Domain)
		var rec *domainRecord
		if known {
			rec = st.domains[at]
		}
		// A version at or below the tombstone is a stale copy bouncing back
		// from a peer that has not pruned yet; reinstalling it would let
		// dead domains ping-pong between RMs forever. A genuinely live (or
		// revived) domain bumps its version every gossip round and climbs
		// past the tombstone quickly.
		if known && rec.pruned > 0 {
			if sum.Version <= rec.pruned {
				continue
			}
			rec.pruned = 0
		}
		if !known || rec.summary == nil || sum.Version > rec.summary.Version {
			if !known {
				rec = &domainRecord{id: sum.Domain}
				st.domains = slices.Insert(st.domains, at, rec)
			}
			rec.rm, rec.summary = sum.RM, sum
			// Freshness = version advancement. An equal-version copy is NOT
			// evidence of life: live RMs bump their version every gossip
			// tick, so a frozen version is exactly the death signal.
			rec.seen = p.ctx.Now()
		}
	}
	if len(msg.Want) == 0 {
		return
	}
	reply := proto.GossipSummaries{
		From:      proto.RMRef{Domain: st.domain, RM: p.ctx.Self()},
		Summaries: make([]*proto.DomainSummary, 0, len(msg.Want)),
	}
	at = 0
	for _, d := range msg.Want {
		if d == st.domain {
			reply.Summaries = append(reply.Summaries, p.buildOwnSummary())
			continue
		}
		var known bool
		if at, known = st.domains.seek(at, d); known && st.domains[at].summary != nil {
			reply.Summaries = append(reply.Summaries, st.domains[at].summary)
		}
	}
	if len(reply.Summaries) > 0 {
		// An honest Want ascends, so this only reorders a hostile one.
		slices.SortFunc(reply.Summaries, func(a, b *proto.DomainSummary) int { return cmp.Compare(a.Domain, b.Domain) })
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
