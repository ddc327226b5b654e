package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/media"
	"repro/internal/proto"
)

// LoadBook exposes the load-book invariant to the external tests: the
// RM's booked load of every member, and per peer the summed stage work of
// the RM's live sessions. Both are nil on a peer that is not an RM.
func (p *Peer) LoadBook() (booked, live map[env.NodeID]float64) {
	if p.rm == nil {
		return nil, nil
	}
	booked = make(map[env.NodeID]float64, len(p.rm.peers))
	for _, rec := range p.rm.peers {
		booked[rec.id] = rec.load
	}
	live = make(map[env.NodeID]float64)
	for _, sess := range p.rm.sessions {
		for _, stg := range sess.desc.Stages {
			live[stg.Peer] += stg.Work
		}
	}
	return booked, live
}

// MemberInfo returns the RM's record of member id's self-description.
func (p *Peer) MemberInfo(id env.NodeID) (proto.PeerInfo, bool) {
	if p.rm == nil {
		return proto.PeerInfo{}, false
	}
	rec, ok := p.rm.peers.get(id)
	if !ok {
		return proto.PeerInfo{}, false
	}
	return rec.info, true
}

// FreshGraphHas reports whether the RM's resource graph awaited a
// rebuild, then brings it up to date the way an admission does and
// reports whether format f is one of its vertices.
func (p *Peer) FreshGraphHas(f media.Format) (wasDirty, has bool) {
	wasDirty = p.rm.grDirty
	p.freshGraph()
	_, has = p.rm.gr.Lookup(f.Key())
	return wasDirty, has
}

// CheckRMTables reports the first broken invariant of the RM's tables,
// or nil (also on a peer that is not an RM): each table strictly
// ascending; a clean resource graph's edges pointing at members that
// offer their service; the backup a member; no record of the RM's own
// domain.
func (p *Peer) CheckRMTables() error {
	st := p.rm
	if st == nil {
		return nil
	}
	if err := checkAscending("peer", st.peers); err != nil {
		return err
	}
	if err := checkAscending("session", st.sessions); err != nil {
		return err
	}
	if err := checkAscending("domain", st.domains); err != nil {
		return err
	}
	if !st.grDirty {
		for v := 0; v < st.gr.NumVertices(); v++ {
			for _, eid := range st.gr.Out(graph.VertexID(v)) {
				e := st.gr.Edge(eid)
				if e.Peer >= len(st.peers) {
					return fmt.Errorf("edge %s: peer index %d past %d members", e.Service, e.Peer, len(st.peers))
				}
				rec := st.peers[e.Peer]
				if !slices.ContainsFunc(rec.info.Services, func(tr media.Transcoder) bool { return tr.Key() == e.Service }) {
					return fmt.Errorf("edge %s: member n%d at index %d does not offer it", e.Service, rec.id, e.Peer)
				}
			}
		}
	}
	if _, ok := st.peers.get(st.backup); st.backup != env.NoNode && !ok {
		return fmt.Errorf("backup n%d is not a member", st.backup)
	}
	if _, ok := st.domains.get(st.domain); ok {
		return fmt.Errorf("domain table holds the RM's own domain %d", st.domain)
	}
	return nil
}

func checkAscending[K cmp.Ordered, R keyed[K]](what string, t table[K, R]) error {
	for i := 1; i < len(t); i++ {
		if t[i-1].key() >= t[i].key() {
			return fmt.Errorf("%s table out of order at %d: %v then %v", what, i, t[i-1].key(), t[i].key())
		}
	}
	return nil
}

// DHTHolds reports whether the peer's DHT store holds an unexpired
// record of domain dom under key.
func (p *Peer) DHTHolds(key proto.DHTKey, dom proto.DomainID) bool {
	d, ok := p.disc.(*dhtDiscovery)
	if !ok {
		return false
	}
	for _, v := range d.node.StoreDiag().Get(key, p.ctx.Now()) {
		if v.Domain == dom {
			return true
		}
	}
	return false
}

// LookupObject runs the discovery backend's object lookup from this
// peer and hands done the RM it resolves.
func (p *Peer) LookupObject(object string, done func(env.NodeID)) {
	p.disc.LookupObject("", object, proto.TraceContext{}, done)
}
