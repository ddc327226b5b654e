package core

import (
	"sort"

	"repro/internal/dht"
	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dhtDiscovery is the structured-overlay backend: every peer runs a
// Kademlia-style node for routing, and RMs publish one provider record
// per catalog entry (objects under "obj"/name keys, services under
// "svc"/key) plus a record under the well-known domain-directory key
// that every RM shares. Object lookups are exact and bounded by the
// iterative walk; the directory is cached each republish round so join
// redirects stay synchronous like gossip's.
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
		d.refreshCatalog()
		return
	}
	d.rmOn = true
	period := d.p.cfg.DHT.RepublishPeriod
	if period <= 0 {
		period = dht.DefaultRepublishPeriod
	}
	d.cancels = append(d.cancels, env.Every(d.p.ctx, period, period, d.refreshCatalog))
	d.refreshCatalog()
}

func (d *dhtDiscovery) CatalogChanged() {
	if d.rmOn && d.p.rm != nil {
		d.refreshCatalog()
	}
}

// refreshCatalog recomputes the advertisement set from the live domain
// view, (re)publishes every record with current load figures, withdraws
// entries that left the catalog, and refreshes the directory cache.
func (d *dhtDiscovery) refreshCatalog() {
	p := d.p
	st := p.rm
	if st == nil {
		return
	}
	rec := proto.DHTProvider{Domain: st.domain, RM: p.ctx.Self(), NumPeers: len(st.peers)}
	var utilSum float64
	for _, rec := range st.peers {
		utilSum += rec.util()
	}
	if len(st.peers) > 0 {
		rec.AvgUtil = utilSum / float64(len(st.peers))
	}

	want := make(map[proto.DHTKey]bool, len(d.pub)+1)
	publish := func(key proto.DHTKey) {
		if !want[key] {
			want[key] = true
			d.node.Publish(key, rec)
		}
	}
	publish(dht.Key(dirKind, dirName))
	for _, rec := range st.peers {
		info := rec.info
		for _, o := range info.Objects {
			publish(dht.Key("obj", o.Name))
		}
		for _, s := range info.Services {
			publish(dht.Key("svc", s.Key()))
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
// the advertising domain with the lowest utilization.
func (d *dhtDiscovery) LookupObject(task, object string, tc proto.TraceContext, done func(env.NodeID)) {
	p := d.p
	d.node.LookupProviders(dht.Key("obj", object), tc, func(vs []proto.DHTProvider) {
		target := env.NoNode
		bestUtil := 0.0
		for _, v := range vs {
			if p.rm != nil && v.Domain == p.rm.domain {
				continue
			}
			if target == env.NoNode || v.AvgUtil < bestUtil ||
				(v.AvgUtil == bestUtil && v.RM < target) {
				target, bestUtil = v.RM, v.AvgUtil
			}
		}
		if tr := p.events.Tracer(); tr != nil {
			tr.Instant(int64(p.ctx.Now()), task, "dht-lookup", int(p.ctx.Self()), int(p.domain),
				trace.A("object", object), trace.A("providers", len(vs)))
		}
		done(target)
	})
}

// RedirectRM answers from the cached directory, mirroring the gossip
// backend's preference order: lowest utilization first, lowest node ID
// breaking ties, domains at capacity skipped.
func (d *dhtDiscovery) RedirectRM(maxPeers int) env.NodeID {
	st := d.p.rm
	type cand struct {
		rm   env.NodeID
		util float64
	}
	var cands []cand
	for _, v := range d.dir {
		if st != nil && v.Domain == st.domain {
			continue
		}
		if v.NumPeers >= maxPeers {
			continue
		}
		cands = append(cands, cand{v.RM, v.AvgUtil})
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
