package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/sim"
)

// twoDomains builds the TestInterDomainRedirect fleet: nine peers under
// a 4-peer domain cap, so the late joiners form a second domain. The
// named object is stored only on peer 6, which lands outside the
// founder's (full) domain. filler objects (unrequested "pad-i-j" names)
// are spread across every peer to load the summary Bloom filters.
func twoDomains(t *testing.T, cfg core.Config, object string, filler int) *cluster.Cluster {
	t.Helper()
	cfg.MaxDomainPeers = 4
	cat := cluster.StandardCatalog()
	c := cluster.New(cfg, netCfg(), 7)
	infos := make([]proto.PeerInfo, 9)
	for i := range infos {
		infos[i] = fixedInfo()
		infos[i].Services = append([]media.Transcoder(nil), cat.Ladder...)
		for j := 0; j < filler; j++ {
			infos[i].Objects = append(infos[i].Objects, media.Object{
				Name:   fmt.Sprintf("pad-%d-%d", i, j),
				Format: cat.Sources[0],
				Bytes:  1 << 20,
			})
		}
	}
	if object != "" {
		infos[6].Objects = append(infos[6].Objects, media.Object{
			Name:   object,
			Format: cat.Sources[0],
			Bytes:  int64(20 * float64(cat.Sources[0].BitrateKbps) * 1000 / 8),
		})
	}
	c.AddFounder(infos[0])
	for i := 1; i < 9; i++ {
		c.AddPeer(infos[i], 0)
		c.RunUntil(c.Eng.Now() + sim.Second)
	}
	c.RunUntil(45 * sim.Second) // let gossip / DHT republish converge
	if len(c.RMs()) < 2 {
		t.Fatalf("RMs = %v, want 2+ domains", c.RMs())
	}
	return c
}

// TestInterDomainRedirectDHT is the structured-overlay twin of
// TestInterDomainRedirect: with Discovery = dht the object lookup rides
// an iterative Kademlia query against the RM-published provider records
// instead of gossiped Bloom summaries, and the task must still be
// redirected and complete.
func TestInterDomainRedirectDHT(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Discovery = core.DiscoveryDHT
	c := twoDomains(t, cfg, "obj-远", 0)
	spec := stdSpec(1)
	spec.ObjectName = "obj-远"
	spec.DeadlineMicros = 5_000_000
	c.Submit(c.Eng.Now(), 1, spec)
	c.RunUntil(c.Eng.Now() + 60*sim.Second)
	ev := c.Events.Snapshot()
	if ev.Redirected == 0 {
		t.Fatalf("no redirect happened (admitted=%d rejected=%d)", ev.Admitted, ev.Rejected)
	}
	if ev.Admitted != 1 || len(ev.Reports) != 1 {
		t.Fatalf("cross-domain task: admitted=%d reports=%d rejected=%d",
			ev.Admitted, len(ev.Reports), ev.Rejected)
	}
	if ev.DHTLookups == 0 || ev.DHTLookupHits == 0 {
		t.Fatalf("DHT lookup counters flat: lookups=%d hits=%d", ev.DHTLookups, ev.DHTLookupHits)
	}
	// Gossip must be fully displaced: no summary state on any RM.
	for _, id := range c.RMs() {
		d := c.Peer(id).DiscoveryDiag()
		if d.Backend != core.DiscoveryDHT || d.Summaries != 0 {
			t.Fatalf("RM n%d diag = %+v, want dht backend with no summaries", id, d)
		}
		if d.TableSize == 0 || d.StoreRecords == 0 {
			t.Fatalf("RM n%d has empty DHT state: %+v", id, d)
		}
		// A minute of republish rounds and refresh ticks on a settled
		// table: the diagnostics show the walks and re-stores the upkeep
		// skipped.
		if d.DHT.WalksSaved == 0 || d.DHT.RestoresSkipped == 0 || d.DHT.RefreshesSkipped == 0 {
			t.Fatalf("RM n%d diag shows no skipped upkeep: %+v", id, d.DHT)
		}
	}
}

// TestDHTPublishesOnlyLookupKeys: an RM publishes one record per
// distinct object name in its domain plus the shared directory record,
// and nothing for the services its members offer, since no lookup reads
// them. An object lookup from the other domain still resolves the
// object's RM.
func TestDHTPublishesOnlyLookupKeys(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Discovery = core.DiscoveryDHT
	c := twoDomains(t, cfg, "obj-远", 2)
	// A replica on a second member of the founder's domain is one name.
	cat := cluster.StandardCatalog()
	c.Eng.At(c.Eng.Now(), func() {
		c.Peer(1).AddObject(media.Object{Name: "pad-0-0", Format: cat.Sources[0], Bytes: 1 << 20})
	})
	c.RunUntil(c.Eng.Now() + 15*sim.Second)
	if c.Peer(1).Domain() != c.Peer(0).Domain() {
		t.Fatalf("peers 0 and 1 in domains %d and %d, want one", c.Peer(0).Domain(), c.Peer(1).Domain())
	}
	home := c.Peer(6).Domain()
	var from, to env.NodeID = env.NoNode, env.NoNode
	for _, rm := range c.RMs() {
		dom := c.Peer(rm).Domain()
		names := map[string]bool{}
		for _, id := range c.IDs() {
			if c.Peer(id).Domain() == dom {
				for _, o := range c.Peer(id).Info().Objects {
					names[o.Name] = true
				}
			}
		}
		if got, want := c.Peer(rm).DiscoveryDiag().Published, len(names)+1; got != want {
			t.Errorf("RM n%d of domain %d publishes %d keys, want %d objects + the directory", rm, dom, got, len(names))
		}
		if dom == home {
			to = rm
		} else {
			from = rm
		}
	}
	if from == env.NoNode || to == env.NoNode {
		t.Fatalf("RMs %v: want one in the object's domain and one outside it", c.RMs())
	}
	got := env.NoNode
	c.Eng.At(c.Eng.Now(), func() { c.Peer(from).LookupObject("obj-远", func(rm env.NodeID) { got = rm }) })
	c.RunUntil(c.Eng.Now() + 5*sim.Second)
	if got != to {
		t.Fatalf("lookup from RM n%d resolved obj-远 to n%d, want n%d", from, got, to)
	}
}

// TestUnderheldKeyRewalkedOnCatalogChange: a key its RM published while
// its routing table held one contact reaches the key's K closest nodes
// at the RM's next catalog change, not a RepublishPeriod later.
func TestUnderheldKeyRewalkedOnCatalogChange(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Discovery = core.DiscoveryDHT
	cfg.DHT.K = 4
	cfg.MaxDomainPeers = 2 // later joiners found domains of their own
	c := cluster.New(cfg, netCfg(), 7)
	cat := cluster.StandardCatalog()
	object := func(name string) media.Object {
		return media.Object{Name: name, Format: cat.Sources[0], Bytes: 1 << 20}
	}
	info := fixedInfo()
	info.Objects = []media.Object{object("lone")}
	rm := c.AddFounder(info)
	c.AddPeer(fixedInfo(), rm)
	c.RunUntil(500 * sim.Millisecond)
	if n := c.Peer(rm).DiscoveryDiag().TableSize; n != 1 {
		t.Fatalf("RM routing table holds %d contacts after its first join, want 1", n)
	}
	for i := 0; i < 10; i++ {
		c.AddPeer(fixedInfo(), rm)
		c.RunUntil(c.Eng.Now() + 400*sim.Millisecond)
	}
	key, dom := dht.Key("obj", "lone"), c.Peer(rm).Domain()
	var others []env.NodeID
	for _, id := range c.IDs() {
		if id != rm {
			others = append(others, id)
		}
	}
	slices.SortFunc(others, func(a, b env.NodeID) int {
		if dht.CloserTo(key, dht.NodeKey(a), dht.NodeKey(b)) {
			return -1
		}
		return 1
	})
	closest := others[:cfg.DHT.K]
	holding := func() (n int) {
		for _, id := range closest {
			if c.Peer(id).DHTHolds(key, dom) {
				n++
			}
		}
		return n
	}
	// The first periodic round is 10 s after the RM started.
	if n := holding(); n == len(closest) {
		t.Fatalf("at %v the %d closest nodes already hold the key; the test shows nothing", c.Eng.Now(), n)
	}
	c.Eng.At(c.Eng.Now(), func() { c.Peer(rm).AddObject(object("another")) })
	c.RunUntil(c.Eng.Now() + sim.Second)
	if n := holding(); n != len(closest) {
		t.Fatalf("a second after the catalog change %d of the key's %d closest nodes hold it", n, len(closest))
	}
}

// TestStaleSummaryNotChosenForRedirect is the regression test for the
// stale-summary redirect bug: prune runs only on gossip ticks, so the
// cache can hold entries older than SummaryMaxAge at decision time, and
// rmHandleSubmit used to redirect tasks at those tombstoned domains.
// With an aggressive age every cached summary is stale when consulted —
// the task must be rejected locally, never redirected, and every skip
// counted.
func TestStaleSummaryNotChosenForRedirect(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SummaryMaxAge = sim.Millisecond // < network latency: stale on arrival
	c := twoDomains(t, cfg, "obj-远", 0)
	for i := 0; i < 5; i++ {
		spec := stdSpec(1)
		spec.ID = "stale-" + string(rune('a'+i))
		spec.ObjectName = "obj-远"
		spec.DeadlineMicros = 5_000_000
		c.Submit(c.Eng.Now()+sim.Time(i)*sim.Second, 1, spec)
	}
	c.RunUntil(c.Eng.Now() + 30*sim.Second)
	ev := c.Events.Snapshot()
	if ev.Redirected != 0 {
		t.Fatalf("redirected %d task(s) on stale summaries", ev.Redirected)
	}
	if ev.Rejected == 0 {
		t.Fatalf("task neither redirected nor rejected: %+v", ev)
	}
	if ev.StaleRedirectSkips == 0 {
		t.Fatalf("stale-summary skips not counted (rejected=%d)", ev.Rejected)
	}
}

// TestBloomFalsePositiveBothBackends submits a task for an object that
// exists nowhere. A tiny Bloom filter makes gossip summaries
// false-positive on it, so the gossip backend bounces the task between
// domains — it must still terminate in a clean rejection within
// MaxRedirects. The DHT backend resolves exactly: no provider record,
// no redirect at all.
func TestBloomFalsePositiveBothBackends(t *testing.T) {
	run := func(t *testing.T, discovery string) core.EventsData {
		cfg := core.DefaultConfig()
		cfg.Discovery = discovery
		cfg.BloomM = 64 // 64 bits over ~100 padded names: FPs near-certain
		cfg.BloomK = 1
		c := twoDomains(t, cfg, "obj-远", 20)
		// Several phantom names: with an 8-bit filter at least one is
		// all but certain to collide with a set bit in some summary.
		for i := 0; i < 6; i++ {
			spec := stdSpec(1)
			spec.ID = "phantom-" + string(rune('a'+i))
			spec.ObjectName = "obj-nope-" + string(rune('a'+i))
			c.Submit(c.Eng.Now()+sim.Time(i)*sim.Second, 1, spec)
		}
		c.RunUntil(c.Eng.Now() + 30*sim.Second)
		ev := c.Events.Snapshot()
		if ev.Admitted != 0 {
			t.Fatalf("phantom object admitted: %+v", ev)
		}
		if ev.Rejected == 0 {
			t.Fatalf("phantom object never rejected: redirected=%d", ev.Redirected)
		}
		return ev
	}
	t.Run("gossip", func(t *testing.T) {
		ev := run(t, core.DiscoveryGossip)
		if ev.Redirected == 0 {
			t.Fatalf("tiny Bloom produced no false-positive redirect")
		}
	})
	t.Run("dht", func(t *testing.T) {
		ev := run(t, core.DiscoveryDHT)
		if ev.Redirected != 0 {
			t.Fatalf("DHT redirected %d task(s) for a nonexistent object", ev.Redirected)
		}
	})
}

// TestCatalogAddVisibleAcrossDomains mutates a peer's catalog mid-run
// and checks the new object becomes discoverable from the other domain
// under both backends: the RM refreshes its inventory, republishes
// (summary version bump / DHT provider record), and a previously
// unsatisfiable request is redirected and admitted.
func TestCatalogAddVisibleAcrossDomains(t *testing.T) {
	for _, backend := range []string{core.DiscoveryGossip, core.DiscoveryDHT} {
		t.Run(backend, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Discovery = backend
			c := twoDomains(t, cfg, "", 0)
			spec := stdSpec(1)
			spec.ID = "pre-add"
			spec.ObjectName = "obj-new"
			spec.DeadlineMicros = 5_000_000
			c.Submit(c.Eng.Now(), 1, spec)
			c.RunUntil(c.Eng.Now() + 10*sim.Second)
			if ev := c.Events.Snapshot(); ev.Rejected != 1 || ev.Admitted != 0 {
				t.Fatalf("pre-add submit: %+v, want one rejection", ev)
			}
			cat := cluster.StandardCatalog()
			c.Eng.At(c.Eng.Now(), func() {
				c.Peer(6).AddObject(media.Object{
					Name:   "obj-new",
					Format: cat.Sources[0],
					Bytes:  int64(20 * float64(cat.Sources[0].BitrateKbps) * 1000 / 8),
				})
			})
			// Profile + republish/gossip round-trips.
			c.RunUntil(c.Eng.Now() + 30*sim.Second)
			spec.ID = "post-add"
			c.Submit(c.Eng.Now(), 1, spec)
			c.RunUntil(c.Eng.Now() + 30*sim.Second)
			ev := c.Events.Snapshot()
			if ev.Redirected == 0 || ev.Admitted != 1 {
				t.Fatalf("post-add submit not served remotely: %+v", ev)
			}
		})
	}
}
