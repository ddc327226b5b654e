package dht

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/env"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// dhtActor hosts one Node on the simulated network — the minimal actor
// shell the core peer also wraps around the DHT. Like core's RM, it
// re-Publishes what it advertises every RepublishPeriod.
type dhtActor struct {
	cfg       Config
	bootstrap []env.NodeID
	node      *Node
	pubs      map[proto.DHTKey]proto.DHTProvider
}

func newActor(cfg Config, bootstrap ...env.NodeID) *dhtActor {
	return &dhtActor{cfg: cfg, bootstrap: bootstrap, pubs: make(map[proto.DHTKey]proto.DHTProvider)}
}

func (a *dhtActor) Init(ctx env.Context) {
	a.node = NewNode(ctx, a.cfg)
	a.node.Start()
	period := a.cfg.withDefaults().RepublishPeriod
	env.Every(ctx, period, period, a.republish)
	a.node.Seed(a.bootstrap...)
}

// publish advertises v under key from now on.
func (a *dhtActor) publish(key proto.DHTKey, v proto.DHTProvider) {
	a.pubs[key] = v
	a.node.Publish(key, v)
}

// unpublish withdraws key.
func (a *dhtActor) unpublish(key proto.DHTKey) {
	delete(a.pubs, key)
	a.node.Unpublish(key)
}

// republish re-Publishes every advertised key in key order.
func (a *dhtActor) republish() {
	keys := make([]proto.DHTKey, 0, len(a.pubs))
	for k := range a.pubs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return Less(keys[i], keys[j]) })
	for _, k := range keys {
		a.node.Publish(k, a.pubs[k])
	}
}

func (a *dhtActor) Receive(from env.NodeID, m env.Message) {
	if !a.node.HandleMessage(from, m) {
		panic(fmt.Sprintf("non-DHT message %T reached dhtActor", m))
	}
}

func (a *dhtActor) Stop() { a.node.Stop() }

// swarm spins up n DHT actors on one network, all bootstrapping off node
// 0, and runs the engine long enough for the overlay to converge.
type swarm struct {
	eng    *sim.Engine
	net    *netsim.Network
	actors []*dhtActor
}

func newSwarm(seed uint64, n int, netCfg netsim.Config, dhtCfg Config) *swarm {
	eng := sim.New()
	net := netsim.New(eng, rng.New(seed), netCfg)
	s := &swarm{eng: eng, net: net, actors: make([]*dhtActor, n)}
	for i := 0; i < n; i++ {
		a := newActor(dhtCfg)
		if i > 0 {
			a.bootstrap = []env.NodeID{0}
		}
		s.actors[i] = a
		net.AddNode(a)
	}
	return s
}

func (s *swarm) run(d sim.Time) { s.eng.RunUntil(s.eng.Now() + d) }

func testNet() netsim.Config {
	return netsim.Config{Latency: netsim.UniformLatency(5 * sim.Millisecond), JitterFrac: 0.2}
}

func TestLookupConvergence(t *testing.T) {
	s := newSwarm(42, 64, testNet(), Config{})
	s.run(45 * sim.Second)

	for id, a := range s.actors {
		if a.node.Table().Len() == 0 {
			t.Fatalf("node %d has an empty routing table after convergence", id)
		}
	}

	key := Key("obj", "movie-7")
	want := proto.DHTProvider{Domain: 3, RM: 5, NumPeers: 4, AvgUtil: 0.25}
	s.actors[5].publish(key, want)
	s.run(5 * sim.Second)

	var got []proto.DHTProvider
	fired := 0
	s.actors[60].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
		fired++
		got = vs
	})
	s.run(10 * sim.Second)

	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly once", fired)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("lookup returned %+v, want [%+v]", got, want)
	}
	st := s.actors[60].node.Stats()
	if st.Lookups == 0 || st.LookupHits == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}

	// A lookup for a key nobody published must miss cleanly.
	fired = 0
	s.actors[7].node.LookupProviders(Key("obj", "nope"), proto.TraceContext{}, func(vs []proto.DHTProvider) {
		fired++
		got = vs
	})
	s.run(10 * sim.Second)
	if fired != 1 || len(got) != 0 {
		t.Fatalf("absent-key lookup: fired=%d values=%+v, want 1/none", fired, got)
	}
}

func TestRepublishAndUnpublishStaleness(t *testing.T) {
	s := newSwarm(7, 32, testNet(), Config{})
	s.run(20 * sim.Second)

	key := Key("svc", "transcode")
	s.actors[3].publish(key, proto.DHTProvider{Domain: 1, RM: 3})

	// Far past the 30s TTL: the 10s republish keeps the record alive.
	s.run(90 * sim.Second)
	hit := false
	s.actors[30].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
		hit = len(vs) > 0
	})
	s.run(10 * sim.Second)
	if !hit {
		t.Fatal("republished record expired under its publisher")
	}

	// After Unpublish the stored copies age out within one TTL.
	s.actors[3].unpublish(key)
	s.run(DefaultProviderTTL + 10*sim.Second)
	hit = false
	s.actors[30].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
		hit = len(vs) > 0
	})
	s.run(10 * sim.Second)
	if hit {
		t.Fatal("unpublished record never expired")
	}
}

// TestLookupUnderChurnAndLoss drives a large overlay through message
// loss and node crashes, and asserts (a) a published record survives the
// loss of some of its holders, and (b) equal seeds give byte-identical
// outcomes — the determinism contract the sim runtime depends on.
func TestLookupUnderChurnAndLoss(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 96
	}
	run := func() string {
		cfg := testNet()
		cfg.LossRate = 0.05
		s := newSwarm(1234, n, cfg, Config{})
		s.run(45 * sim.Second)

		key := Key("obj", "survivor")
		s.actors[9].publish(key, proto.DHTProvider{Domain: 2, RM: 9})
		s.run(5 * sim.Second)

		// Crash 10% of the overlay (but never the publisher or prober).
		r := rng.New(99)
		crashed := 0
		for crashed < n/10 {
			id := env.NodeID(r.Intn(n))
			if id == 9 || id == env.NodeID(n-1) || !s.net.Alive(id) {
				continue
			}
			s.net.Crash(id)
			crashed++
		}
		// Two republish periods: the record re-settles on live holders.
		s.run(25 * sim.Second)

		hits, misses := 0, 0
		for i := 0; i < 5; i++ {
			s.actors[n-1].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
				if len(vs) > 0 {
					hits++
				} else {
					misses++
				}
			})
			s.run(10 * sim.Second)
		}
		if hits == 0 {
			return fmt.Sprintf("FAIL: 0/%d probes resolved after churn", hits+misses)
		}
		st := s.net.Stats()
		probe := s.actors[n-1].node.Stats()
		return fmt.Sprintf("hits=%d misses=%d sent=%d delivered=%d dropped=%d kb=%.3f rpcs=%d timeouts=%d fired=%d now=%d",
			hits, misses, st.Sent, st.Delivered, st.Dropped, st.KBytes,
			probe.RPCsSent, probe.RPCTimeouts, s.eng.Fired(), s.eng.Now())
	}

	a, b := run(), run()
	if a != b {
		t.Fatalf("equal-seed runs diverged:\n  %s\n  %s", a, b)
	}
	if len(a) > 4 && a[:4] == "FAIL" {
		t.Fatal(a)
	}
	t.Log(a)
}
