package core

import (
	"slices"

	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/proto"
)

// Catalog mutation API: a peer's object/service inventory can change
// while it is a domain member (content fetched or deleted, a transcoder
// installed or retired). Mutations update the self-description and
// propagate it — an RM folds its own record in place and refreshes its
// advertisements; a member re-sends Join, whose refresh path on the RM
// does the same. The scenario DSL's `catalog` verb drives these.
//
// The mutators are copy-on-write: a sent Join, and the RM's record of
// this peer, share the catalog's backing arrays, so changing an element
// in place would alter the RM's view before the change is delivered and
// hide it from the re-join's comparison.

// AddObject installs (or replaces, by name) an object in the catalog.
func (p *Peer) AddObject(o media.Object) {
	for i := range p.info.Objects {
		if p.info.Objects[i].Name == o.Name {
			p.info.Objects = slices.Clone(p.info.Objects)
			p.info.Objects[i] = o
			p.catalogChanged()
			return
		}
	}
	p.info.Objects = append(slices.Clip(p.info.Objects), o)
	p.catalogChanged()
}

// RemoveObject drops an object by name; unknown names are a no-op.
func (p *Peer) RemoveObject(name string) {
	kept := make([]media.Object, 0, len(p.info.Objects))
	for _, o := range p.info.Objects {
		if o.Name != name {
			kept = append(kept, o)
		}
	}
	if len(kept) == len(p.info.Objects) {
		return
	}
	p.info.Objects = kept
	p.catalogChanged()
}

// AddService installs a transcoder (deduplicated by service key).
func (p *Peer) AddService(t media.Transcoder) {
	for _, cur := range p.info.Services {
		if cur.Key() == t.Key() {
			return
		}
	}
	p.info.Services = append(slices.Clip(p.info.Services), t)
	p.catalogChanged()
}

// RemoveService drops a transcoder by service key; unknown keys no-op.
func (p *Peer) RemoveService(key string) {
	kept := make([]media.Transcoder, 0, len(p.info.Services))
	for _, s := range p.info.Services {
		if s.Key() != key {
			kept = append(kept, s)
		}
	}
	if len(kept) == len(p.info.Services) {
		return
	}
	p.info.Services = kept
	p.catalogChanged()
}

// catalogChanged pushes the updated self-description toward the domain
// view and the discovery backend.
func (p *Peer) catalogChanged() {
	if st := p.rm; st != nil {
		if rec, ok := st.peers.get(p.ctx.Self()); ok {
			info := p.info
			info.ID = p.ctx.Self()
			rec.info = info
		}
		st.catalogDirty()
		st.bumpVersion()
		p.disc.CatalogChanged()
		return
	}
	if p.joined && p.rmID != env.NoNode {
		// The RM's re-join path refreshes our record and re-accepts.
		p.sendJoin(p.rmID)
	}
}

// catalogEqual compares only the catalog portion of two peer infos: a
// plain join retry differs in UptimeSec, which must not bump summary
// versions or trigger re-advertisement.
func catalogEqual(a, b proto.PeerInfo) bool {
	if len(a.Objects) != len(b.Objects) || len(a.Services) != len(b.Services) {
		return false
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			return false
		}
	}
	for i := range a.Services {
		if a.Services[i] != b.Services[i] {
			return false
		}
	}
	return true
}
