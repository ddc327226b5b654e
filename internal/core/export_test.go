package core

import "repro/internal/env"

// LoadBook exposes the load-book invariant to the external tests: the
// RM's booked load of every member, and per peer the summed stage work of
// the RM's live sessions. Both are nil on a peer that is not an RM.
func (p *Peer) LoadBook() (booked, live map[env.NodeID]float64) {
	if p.rm == nil {
		return nil, nil
	}
	booked = make(map[env.NodeID]float64, len(p.rm.peers))
	for _, id := range sortedPeerIDs(p.rm.peers) {
		booked[id] = p.rm.peers[id].load
	}
	live = make(map[env.NodeID]float64)
	for _, sess := range sortedSessions(p.rm.sessions) {
		for _, stg := range sess.desc.Stages {
			live[stg.Peer] += stg.Work
		}
	}
	return booked, live
}
