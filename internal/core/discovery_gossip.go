package core

import (
	"sort"

	"repro/internal/bloom"
	"repro/internal/env"
	"repro/internal/proto"
)

// gossipDiscovery is the paper's lazy anti-entropy backend (§4.4) behind
// the Discovery interface: a thin adapter over the gossip machinery in
// gossip.go, which stays byte-identical to the pre-interface behavior.
// Decision logic that consumes the gossiped summaries (object-domain
// picks, join redirects) lives here.
type gossipDiscovery struct {
	p *Peer
}

func newGossipDiscovery(p *Peer) *gossipDiscovery { return &gossipDiscovery{p: p} }

func (g *gossipDiscovery) Init() {}
func (g *gossipDiscovery) Stop() {}

// NoteContacts is a no-op: gossip learns RMs from exchanged summaries.
func (g *gossipDiscovery) NoteContacts(ids ...env.NodeID) {}

// CatalogChanged is a no-op: callers bump the summary version and the
// next gossip round rebuilds the advertisement lazily.
func (g *gossipDiscovery) CatalogChanged() {}

// StartRM arms the anti-entropy round ticker on the RM timer list, so a
// takeover cancels it with the rest of the role's timers.
func (g *gossipDiscovery) StartRM() {
	p := g.p
	if p.cfg.GossipPeriod > 0 {
		p.rm.timers = append(p.rm.timers, env.Every(p.ctx, p.cfg.GossipPeriod, p.cfg.GossipPeriod, p.rmGossipTick))
	}
}

func (g *gossipDiscovery) HandleMessage(from env.NodeID, m env.Message) bool {
	switch msg := m.(type) {
	case proto.GossipDigest:
		g.p.rmHandleGossipDigest(from, msg)
	case proto.GossipSummaries:
		g.p.rmHandleGossipSummaries(from, msg)
	default:
		return false
	}
	return true
}

// LookupObject resolves synchronously from the cached summaries.
func (g *gossipDiscovery) LookupObject(task, object string, tc proto.TraceContext, done func(env.NodeID)) {
	done(g.pickObjectDomain(object))
}

// staleSummary reports whether a domain's cached summary has aged past
// the prune horizon without being refreshed. Prune runs only on gossip
// ticks, so between ticks (or after a stale copy bounced back in) the
// cache can hold entries older than SummaryMaxAge; consulting them for
// redirects sends tasks and joiners at domains that are likely gone.
// Every skip is counted (p2p_rm_redirects_stale_skipped_total).
func (g *gossipDiscovery) staleSummary(st *rmState, rec *domainRecord) bool {
	maxAge := g.p.cfg.SummaryMaxAge
	if maxAge <= 0 || g.p.ctx.Now()-rec.seen <= maxAge {
		return false
	}
	g.p.events.emit(fact{kind: kindStaleSkip, domain: st.domain})
	return true
}

// pickObjectDomain finds a gossiped domain whose object Bloom filter
// possibly contains the object, preferring low utilization and skipping
// summaries older than the prune horizon.
func (g *gossipDiscovery) pickObjectDomain(object string) env.NodeID {
	st := g.p.rm
	if st == nil {
		return env.NoNode
	}
	type cand struct {
		rm   env.NodeID
		util float64
	}
	var cands []cand
	for _, rec := range st.domains {
		sum := rec.summary
		if sum == nil || len(sum.ObjectBloom) == 0 || g.staleSummary(st, rec) {
			continue
		}
		if ok, err := bloom.BytesContainString(sum.ObjectBloom, sum.BloomM, sum.BloomK, object); err != nil || !ok {
			continue
		}
		cands = append(cands, cand{sum.RM, sum.AvgUtil})
	}
	if len(cands) == 0 {
		return env.NoNode
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].util != cands[j].util {
			return cands[i].util < cands[j].util
		}
		return cands[i].rm < cands[j].rm
	})
	return cands[0].rm
}

// RedirectRM chooses another domain's RM for a join redirect, preferring
// low utilization and skipping domains whose last summary shows them at
// capacity or has aged past the prune horizon.
func (g *gossipDiscovery) RedirectRM(maxPeers int) env.NodeID {
	st := g.p.rm
	if st == nil {
		return env.NoNode
	}
	type cand struct {
		rm   env.NodeID
		util float64
	}
	var cands []cand
	for _, rec := range st.domains {
		util := 0.5
		if sum := rec.summary; sum != nil {
			if g.staleSummary(st, rec) {
				continue
			}
			util = sum.AvgUtil
			if sum.NumPeers >= maxPeers {
				continue
			}
		}
		cands = append(cands, cand{rec.rm, util})
	}
	if len(cands) == 0 {
		return env.NoNode
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].util != cands[j].util {
			return cands[i].util < cands[j].util
		}
		return cands[i].rm < cands[j].rm
	})
	return cands[0].rm
}

func (g *gossipDiscovery) Diag() DiscoveryDiag {
	d := DiscoveryDiag{Backend: DiscoveryGossip, Domain: g.p.domain, IsRM: g.p.IsRM()}
	if st := g.p.rm; st != nil {
		d.KnownDomains = len(st.domains)
		d.Summaries = len(st.summarized())
	}
	return d
}
