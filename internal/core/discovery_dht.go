package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dht"
	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dhtDiscovery is the structured-overlay backend: every peer runs a
// Kademlia-style node for routing, and RMs publish only what a lookup
// reads: one provider record per object name ("obj"/name keys) plus a
// record under the well-known domain-directory key that every RM
// shares. Object records name only the domain and its RM, so they stay
// unchanged between catalog edits; the domain's size and load travel
// in its directory record alone. Object lookups are
// exact and bounded by the iterative walk; the directory is cached each
// republish round so join redirects stay synchronous like gossip's, and
// object lookups rank providers by that cache's load figures.
type dhtDiscovery struct {
	p    *Peer
	node *dht.Node

	pub     map[proto.DHTKey]bool // keys currently advertised
	dir     []proto.DHTProvider   // cached RM directory, refreshed each republish round
	cancels []env.Cancel
	rmOn    bool
}

// The well-known key every Resource Manager publishes its domain record
// under — the DHT's replacement for gossip's RM-list bootstrap.
const dirKind, dirName = "dir", "rms"

func newDHTDiscovery(p *Peer) *dhtDiscovery {
	return &dhtDiscovery{p: p, pub: make(map[proto.DHTKey]bool)}
}

func (d *dhtDiscovery) Init() {
	p := d.p
	d.node = dht.NewNode(p.ctx, p.cfg.DHT)
	d.node.OnLookupDone = func(hit bool, elapsed sim.Time) {
		k := kindDHTMiss
		if hit {
			k = kindDHTHit
		}
		p.events.emit(fact{kind: k, domain: p.domain, now: int64(p.ctx.Now()), n: int64(elapsed)})
	}
	d.node.Start()
	if p.bootstrap != env.NoNode {
		d.node.Seed(p.bootstrap)
	}
}

func (d *dhtDiscovery) Stop() {
	for _, c := range d.cancels {
		c.Cancel()
	}
	d.cancels = nil
	d.node.Stop()
}

// NoteContacts seeds the routing table from membership contacts.
func (d *dhtDiscovery) NoteContacts(ids ...env.NodeID) {
	d.node.Seed(ids...)
}

func (d *dhtDiscovery) HandleMessage(from env.NodeID, m env.Message) bool {
	return d.node.HandleMessage(from, m)
}

// StartRM arms the catalog republish loop. Re-promotion (takeover after
// a failover round-trip) just refreshes in place.
func (d *dhtDiscovery) StartRM() {
	if d.rmOn {
		d.advertise(true)
		return
	}
	d.rmOn = true
	period := d.p.cfg.DHT.RepublishPeriod
	if period <= 0 {
		period = dht.DefaultRepublishPeriod
	}
	d.cancels = append(d.cancels, env.Every(d.p.ctx, period, period, func() { d.advertise(true) }))
	d.advertise(true)
}

// CatalogChanged re-advertises only what changed: the keys new to the
// advertisement set, and the directory record, whose NumPeers may have
// moved. It also re-publishes the keys whose last walk found fewer than
// K holders; such a call walks again once the routing table has grown.
func (d *dhtDiscovery) CatalogChanged() {
	if d.rmOn && d.p.rm != nil {
		d.advertise(false)
	}
}

// advertise recomputes the advertisement set from the live domain view,
// publishes the directory record with the domain's current size and
// load, publishes either every object record (all, the periodic round)
// or only the keys new to the set or underheld, withdraws objects that
// left the catalog, and refreshes the directory cache. Publish itself
// sends nothing for an unchanged record whose holders' copies outlive
// the next round.
func (d *dhtDiscovery) advertise(all bool) {
	p := d.p
	st := p.rm
	if st == nil {
		return
	}
	rec := proto.DHTProvider{Domain: st.domain, RM: p.ctx.Self()}
	dirRec := rec
	dirRec.NumPeers = len(st.peers)
	var utilSum float64
	for _, rec := range st.peers {
		utilSum += rec.util()
	}
	if len(st.peers) > 0 {
		dirRec.AvgUtil = utilSum / float64(len(st.peers))
	}

	want := make(map[proto.DHTKey]bool, len(d.pub)+1)
	publish := func(key proto.DHTKey) {
		if !want[key] {
			want[key] = true
			if all || !d.pub[key] || d.node.Underheld(key) {
				d.node.Publish(key, rec)
			}
		}
	}
	dirKey := dht.Key(dirKind, dirName)
	want[dirKey] = true
	d.node.Publish(dirKey, dirRec)
	for _, rec := range st.peers {
		for _, o := range rec.info.Objects {
			publish(dht.Key("obj", o.Name))
		}
	}
	var stale []proto.DHTKey
	for k := range d.pub { //lint:maporder commutative — withdrawn keys are sorted below before use
		if !want[k] {
			stale = append(stale, k)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return dht.Less(stale[i], stale[j]) })
	for _, k := range stale {
		d.node.Unpublish(k)
	}
	d.pub = want

	// Directory refresh: cache the other RMs' records for synchronous
	// redirect decisions, and fold them into the domain table so failover
	// state replication keeps working without gossip.
	d.node.LookupProviders(dht.Key(dirKind, dirName), proto.TraceContext{}, func(vs []proto.DHTProvider) {
		if p.rm == nil {
			d.dir = nil
			return
		}
		d.dir = vs
		for _, v := range vs {
			p.rm.noteRM(proto.RMRef{Domain: v.Domain, RM: v.RM})
		}
	})
}

// LookupObject runs an iterative lookup under the object's key and picks
// the advertising domain that the directory cache lists as least
// utilized.
func (d *dhtDiscovery) LookupObject(task, object string, tc proto.TraceContext, done func(env.NodeID)) {
	p := d.p
	d.node.LookupProviders(dht.Key("obj", object), tc, func(vs []proto.DHTProvider) {
		own := proto.NoDomain
		if p.rm != nil {
			own = p.rm.domain
		}
		target := leastLoaded(vs, d.dir, own)
		if tr := p.events.Tracer(); tr != nil {
			tr.Instant(int64(p.ctx.Now()), task, "dht-lookup", int(p.ctx.Self()), int(p.domain),
				trace.A("object", object), trace.A("providers", len(vs)))
		}
		done(target)
	})
}

// leastLoaded returns the RM of the provider, outside domain own, whose
// domain the directory dir lists with the lowest utilization. A domain
// missing from dir ranks after every listed one; lowest RM breaks ties.
func leastLoaded(vs, dir []proto.DHTProvider, own proto.DomainID) env.NodeID {
	target, best := env.NoNode, 0.0
	for _, v := range vs {
		util := math.Inf(1)
		if i := slices.IndexFunc(dir, func(e proto.DHTProvider) bool { return e.Domain == v.Domain }); i >= 0 {
			util = dir[i].AvgUtil
		}
		if v.Domain != own && (target == env.NoNode || util < best || util == best && v.RM < target) {
			target, best = v.RM, util
		}
	}
	return target
}

// RedirectRM answers from the cached directory, mirroring the gossip
// backend's preference order: lowest utilization first, lowest node ID
// breaking ties, domains at capacity skipped.
func (d *dhtDiscovery) RedirectRM(maxPeers int) env.NodeID {
	own := proto.NoDomain
	if d.p.rm != nil {
		own = d.p.rm.domain
	}
	target, best := env.NoNode, 0.0
	for _, v := range d.dir {
		if v.Domain == own || v.NumPeers >= maxPeers {
			continue
		}
		if target == env.NoNode || v.AvgUtil < best || v.AvgUtil == best && v.RM < target {
			target, best = v.RM, v.AvgUtil
		}
	}
	return target
}

func (d *dhtDiscovery) Diag() DiscoveryDiag {
	dg := DiscoveryDiag{Backend: DiscoveryDHT, Domain: d.p.domain, IsRM: d.p.IsRM()}
	if st := d.p.rm; st != nil {
		dg.KnownDomains = len(st.domains)
	}
	if d.node == nil {
		return dg
	}
	dg.TableSize = d.node.Table().Len()
	dg.Buckets = d.node.Table().BucketSizes()
	dg.StoreKeys = d.node.StoreDiag().Len()
	dg.StoreRecords = d.node.StoreDiag().Records()
	dg.Published = d.node.Published()
	dg.DirCache = len(d.dir)
	dg.DHT = d.node.Stats()
	return dg
}
