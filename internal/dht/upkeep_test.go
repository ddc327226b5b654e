package dht

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// converged returns a 64-node swarm that has run long enough for every
// routing table to stop changing.
func converged(t *testing.T, seed uint64) *swarm {
	t.Helper()
	s := newSwarm(seed, 64, testNet(), Config{})
	s.run(60 * sim.Second)
	return s
}

// upkeepKeys returns n distinct provider keys.
func upkeepKeys(n int) []proto.DHTKey {
	keys := make([]proto.DHTKey, n)
	for i := range keys {
		keys[i] = Key("obj", fmt.Sprintf("upkeep-%d", i))
	}
	return keys
}

// TestRepublishReusesHolders: once a key's walk has found its K closest
// nodes and the routing table stands, the publisher's rounds alternate.
// A round whose holders' copies outlive the next one sends nothing; the
// round after stores straight to the cached holders, K STOREs per key
// and no walk; a round once the walk is ProviderTTL old walks again
// and stores to what it finds.
func TestRepublishReusesHolders(t *testing.T) {
	s := converged(t, 11)
	pub := s.actors[5]
	keys := upkeepKeys(4)
	for _, k := range keys {
		pub.publish(k, proto.DHTProvider{Domain: 1, RM: 5})
	}
	s.run(3 * sim.Second) // the first walks land
	n := pub.node
	for _, k := range keys {
		if got := len(n.published[k].holders); got != DefaultK {
			t.Fatalf("key %x: walk found %d holders, want %d", k[:4], got, DefaultK)
		}
	}
	gen := n.Table().gen
	type round struct{ stores, saved, skipped uint64 }
	all, each := uint64(DefaultK*len(keys)), uint64(len(keys))
	// The publisher's rounds fall at 70, 80, 90 and 100 s; the keys were
	// published and walked at 60 s.
	want := []round{{0, 0, each}, {all, each, 0}, {0, 0, each}, {all, 0, 0}}
	for i, w := range want {
		before := n.Stats()
		s.run(DefaultRepublishPeriod)
		after := n.Stats()
		got := round{
			after.StoresSent - before.StoresSent,
			after.WalksSaved - before.WalksSaved,
			after.RestoresSkipped - before.RestoresSkipped,
		}
		if got != w {
			t.Errorf("round %d: %+v, want %+v", i+1, got, w)
		}
	}
	if n.Table().gen != gen {
		t.Fatal("routing table changed during the rounds; the swarm has not converged")
	}
}

// TestRepublishWalksAfterHolderTimeout: a holder that misses an RPC
// leaves the routing table, and the next round walks again and stores
// to a set without it.
func TestRepublishWalksAfterHolderTimeout(t *testing.T) {
	s := converged(t, 12)
	pub := s.actors[5]
	key := upkeepKeys(1)[0]
	pub.publish(key, proto.DHTProvider{Domain: 1, RM: 5})
	s.run(3 * sim.Second)
	n := pub.node
	var dead env.NodeID = env.NoNode
	for _, h := range n.published[key].holders {
		if n.Table().Contains(h) {
			dead = h
			break
		}
	}
	if dead == env.NoNode {
		t.Fatal("no holder is in the publisher's routing table")
	}
	s.net.Crash(dead)
	gen := n.Table().gen
	n.LookupNode(NodeKey(dead), nil) // queries the dead holder, which times out
	s.run(3 * sim.Second)
	if n.Table().Contains(dead) || n.Table().gen == gen {
		t.Fatal("the timed-out holder is still in the routing table")
	}
	before := n.Stats()
	pub.republish()
	if n.Stats().WalksSaved != before.WalksSaved || n.Stats().RPCsSent == before.RPCsSent {
		t.Fatal("round after a table change stored to the cached holders without walking")
	}
	s.run(3 * sim.Second)
	for _, h := range n.published[key].holders {
		if h == dead {
			t.Fatalf("new holder set %v still holds crashed node %d", n.published[key].holders, dead)
		}
	}
}

// TestRepublishReachesCloserNewcomer: a node that joins closer to a key
// than its farthest holder receives the record on the next round.
func TestRepublishReachesCloserNewcomer(t *testing.T) {
	s := converged(t, 13)
	newID := env.NodeID(len(s.actors))
	key := NodeKey(newID)
	key[len(key)-1] ^= 1 // the newcomer is the closest node to key
	// The publisher must have room for the newcomer in its routing table,
	// or it hears of it only at the walk after ProviderTTL. The node
	// nearest the newcomer shares the smallest bucket with it.
	pub := s.actors[0]
	for _, a := range s.actors {
		if BucketIndex(NodeKey(newID), a.node.Table().SelfKey()) < BucketIndex(NodeKey(newID), pub.node.Table().SelfKey()) {
			pub = a
		}
	}
	pub.publish(key, proto.DHTProvider{Domain: 1, RM: 5})
	s.run(3 * sim.Second)

	newcomer := newActor(Config{}, pub.node.ctx.Self())
	if id := s.net.AddNode(newcomer); id != newID {
		t.Fatalf("newcomer got ID %d, want %d", id, newID)
	}
	s.run(3 * sim.Second)
	if !pub.node.Table().Contains(newID) {
		t.Fatal("the publisher never heard from the newcomer")
	}
	pub.republish()
	s.run(3 * sim.Second)
	if got := newcomer.node.StoreDiag().Get(key, s.eng.Now()); len(got) != 1 {
		t.Fatalf("newcomer holds %v for the key it is closest to, want the record", got)
	}
}

// TestCurrentGuards: a cached holder set stops being current once
// ProviderTTL has passed since its walk, once the table's generation
// moves, or, with the generation unchanged, once the table knows a
// contact closer than the farthest holder that the set lacks (a contact
// inserted during the walk by traffic the walk never saw).
func TestCurrentGuards(t *testing.T) {
	s := converged(t, 14)
	pub := s.actors[5]
	key := upkeepKeys(1)[0]
	pub.publish(key, proto.DHTProvider{Domain: 1, RM: 5})
	s.run(3 * sim.Second)
	n := pub.node
	p := n.published[key]
	if !n.current(key, p) {
		t.Fatal("fresh holder set not current")
	}
	p.walked -= DefaultProviderTTL
	if n.current(key, p) {
		t.Fatal("holder set walked ProviderTTL ago counts as current")
	}
	p.walked += DefaultProviderTTL
	p.gen--
	if n.current(key, p) {
		t.Fatal("holder set from an older table generation counts as current")
	}
	p.gen++
	closest := n.Table().Closest(key, 1)[0]
	full := p.holders
	p.holders = nil
	for _, h := range full {
		if h != closest {
			p.holders = append(p.holders, h)
		}
	}
	if n.current(key, p) {
		t.Fatalf("set without the table's closest contact %d counts as current", closest)
	}
}

// TestTableGenCountsInsertsAndRemoves: the generation moves on every
// insert and remove, and not on a refresh or a full-bucket refusal.
func TestTableGenCountsInsertsAndRemoves(t *testing.T) {
	tb := NewTable(0, 1)
	var a, b env.NodeID // two nodes in one bucket
	for id := env.NodeID(2); b == 0; id++ {
		if BucketIndex(tb.SelfKey(), NodeKey(id)) == BucketIndex(tb.SelfKey(), NodeKey(1)) {
			a, b = 1, id
		}
	}
	steps := []struct {
		do   func()
		want uint64
	}{
		{func() { tb.Update(a) }, 1}, // insert
		{func() { tb.Update(a) }, 1}, // refresh
		{func() { tb.Update(b) }, 1}, // bucket full: refused
		{func() { tb.Remove(a) }, 2},
		{func() { tb.Remove(a) }, 2}, // absent
		{func() { tb.Update(b) }, 3},
	}
	for i, st := range steps {
		st.do()
		if tb.gen != st.want {
			t.Fatalf("step %d: gen %d, want %d", i, tb.gen, st.want)
		}
	}
}

// TestPublishDuringWalkStoresLatest: a Publish while the key's walk is
// in flight sends nothing itself, and the walk stores the newest value.
func TestPublishDuringWalkStoresLatest(t *testing.T) {
	s := converged(t, 17)
	pub := s.actors[5]
	key := upkeepKeys(1)[0]
	pub.publish(key, proto.DHTProvider{Domain: 1, RM: 5, NumPeers: 1})
	rpcs := pub.node.Stats().RPCsSent
	latest := proto.DHTProvider{Domain: 1, RM: 5, NumPeers: 2}
	pub.publish(key, latest)
	if st := pub.node.Stats(); st.RPCsSent != rpcs || st.StoresSent != 0 {
		t.Fatalf("Publish during the walk sent traffic: %+v", st)
	}
	s.run(3 * sim.Second)
	holders := pub.node.published[key].holders
	for _, h := range holders {
		if got := s.actors[h].node.StoreDiag().Get(key, s.eng.Now()); len(got) != 1 || got[0] != latest {
			t.Fatalf("holder %d stores %v, want [%v]", h, got, latest)
		}
	}
	if st := pub.node.Stats(); st.StoresSent != uint64(len(holders)) {
		t.Fatalf("%d STOREs for one walk to %d holders", st.StoresSent, len(holders))
	}
}

// TestRefreshSkipsFreshBuckets: a refresh tick walks only when its
// random key's bucket went untouched for the period, and draws the key
// from the node's stream either way.
func TestRefreshSkipsFreshBuckets(t *testing.T) {
	s := converged(t, 15)
	n := s.actors[9].node
	tb := n.Table()
	for i := range tb.touched {
		tb.touched[i] = ^uint64(0) // every bucket fresh
	}
	want := *n.ctx.Rand()
	want.Uint64()
	before := n.Stats()
	n.refresh()
	st := n.Stats()
	if st.RefreshesSkipped != before.RefreshesSkipped+1 || st.RPCsSent != before.RPCsSent {
		t.Fatalf("tick with every bucket fresh: %+v -> %+v, want a skip and no RPC", before, st)
	}
	if *n.ctx.Rand() != want {
		t.Fatal("a skipped refresh did not draw its key from the node's stream")
	}
	// The tick opened a new period with every bucket stale, so the next
	// one walks.
	n.refresh()
	if st2 := n.Stats(); st2.RefreshesSkipped != st.RefreshesSkipped || st2.RPCsSent == st.RPCsSent {
		t.Fatalf("tick with every bucket stale: %+v -> %+v, want a walk", st, st2)
	}
	// Lookups and heard contacts mark their buckets.
	tb.untouch()
	key := Key("obj", "touched")
	if !tb.stale(key) {
		t.Fatal("bucket fresh right after untouch")
	}
	n.LookupNode(key, nil)
	if tb.stale(key) {
		t.Fatal("starting a lookup did not mark the key's bucket")
	}
	contact := env.NoNode
	for i, b := range tb.buckets {
		if len(b) > 0 && i != BucketIndex(tb.SelfKey(), key) {
			contact = b[0].id
			break
		}
	}
	if !tb.stale(NodeKey(contact)) {
		t.Fatal("the contact's bucket is already fresh; the check below shows nothing")
	}
	n.HandleMessage(contact, proto.FindNode{RPC: 1, Target: key})
	if tb.stale(NodeKey(contact)) {
		t.Fatal("hearing from a contact did not mark its bucket")
	}
}

// TestPublishedKeysFindableUnderChurn crashes and adds nodes while four
// publishers keep republishing, and requires every published key to be
// found at every sample: cached holder sets must follow the churn.
func TestPublishedKeysFindableUnderChurn(t *testing.T) {
	s := newSwarm(16, 96, testNet(), Config{})
	s.run(45 * sim.Second)
	publishers := []env.NodeID{3, 17, 40, 71}
	const prober = env.NodeID(95)
	keys := upkeepKeys(8)
	for i, k := range keys {
		id := publishers[i%len(publishers)]
		s.actors[id].publish(k, proto.DHTProvider{Domain: proto.DomainID(i), RM: id})
	}
	s.run(5 * sim.Second)

	r := rng.New(77)
	for sample := 0; sample < 12; sample++ {
		// Each sample period crashes two nodes and adds one.
		for crashed := 0; crashed < 2; {
			id := env.NodeID(r.Intn(len(s.actors)))
			if slices.Contains(publishers, id) || id == prober || !s.net.Alive(id) {
				continue
			}
			s.net.Crash(id)
			crashed++
		}
		a := newActor(Config{}, publishers[r.Intn(len(publishers))])
		s.actors = append(s.actors, a)
		s.net.AddNode(a)
		s.run(10 * sim.Second)

		for i, k := range keys {
			hit := false
			s.actors[prober].node.LookupProviders(k, proto.TraceContext{}, func(vs []proto.DHTProvider) {
				hit = len(vs) > 0
			})
			s.run(3 * sim.Second)
			if !hit {
				t.Fatalf("sample %d: key %d not found", sample, i)
			}
		}
	}
	saved := uint64(0)
	for _, id := range publishers {
		saved += s.actors[id].node.Stats().WalksSaved
	}
	if saved == 0 {
		t.Fatal("no round reused a holder set; the churn test exercised only walks")
	}
}

// fullBucket returns a node of s with a full bucket i, and a swarm node
// in that bucket's range that the node's table lacks.
func fullBucket(t *testing.T, s *swarm) (n *Node, i int, newcomer env.NodeID) {
	t.Helper()
	for _, a := range s.actors {
		tb := a.node.Table()
		for id := range s.actors {
			i := BucketIndex(tb.SelfKey(), NodeKey(env.NodeID(id)))
			if i >= 0 && len(tb.buckets[i]) == DefaultK && !tb.Contains(env.NodeID(id)) {
				return a.node, i, env.NodeID(id)
			}
		}
	}
	t.Fatal("no node has a full bucket with a swarm node outside it")
	return nil, 0, env.NoNode
}

// TestFullBucketSendsNoPing: a node whose bucket is full answers a
// request from a node the bucket lacks and sends nothing else. The
// newcomer stays out and the occupants stay as they were.
func TestFullBucketSendsNoPing(t *testing.T) {
	s := converged(t, 18)
	n, i, newcomer := fullBucket(t, s)
	occupants := slices.Clone(n.Table().buckets[i])
	sent, rpcs := s.net.Stats().Sent, n.Stats().RPCsSent
	n.HandleMessage(newcomer, proto.FindNode{RPC: 1, Target: Key("obj", "x")})
	if d := s.net.Stats().Sent - sent; d != 1 {
		t.Fatalf("hearing a newcomer in a full bucket sent %d messages, want only the answer", d)
	}
	if n.Stats().RPCsSent != rpcs {
		t.Fatal("hearing a newcomer in a full bucket started an RPC")
	}
	if n.Table().Contains(newcomer) || !slices.Equal(n.Table().buckets[i], occupants) {
		t.Fatalf("full bucket changed: %v, was %v", n.Table().buckets[i], occupants)
	}
}

// TestTimedOutOccupantFreesSlot: an occupant of a full bucket whose RPC
// times out leaves the table, and the next newcomer heard in that
// bucket takes its slot.
func TestTimedOutOccupantFreesSlot(t *testing.T) {
	s := converged(t, 19)
	n, i, newcomer := fullBucket(t, s)
	occupant := n.Table().buckets[i][0].id
	s.net.Crash(occupant)
	timedOut := false
	n.call(occupant, func(rpc uint64) env.Message {
		return proto.FindNode{RPC: rpc, Target: n.Table().SelfKey()}
	}, func(_ []env.NodeID, _ []proto.DHTProvider, ok bool) { timedOut = !ok })
	s.run(DefaultRPCTimeout + sim.Second)
	if !timedOut || n.Table().Contains(occupant) {
		t.Fatalf("timed out %v, occupant %d still held %v", timedOut, occupant, n.Table().Contains(occupant))
	}
	if got := len(n.Table().buckets[i]); got != DefaultK-1 {
		t.Fatalf("bucket holds %d contacts after the timeout, want %d", got, DefaultK-1)
	}
	n.HandleMessage(newcomer, proto.FindNode{RPC: 1, Target: Key("obj", "x")})
	if !n.Table().Contains(newcomer) {
		t.Fatal("the newcomer did not take the freed slot")
	}
}

// TestStaticRecordNeverLapses: a record republished unchanged every
// round for four TTLs is in every holder's store at every second, and
// costs the first walk's K STOREs, then K per ProviderTTL −
// RepublishPeriod.
func TestStaticRecordNeverLapses(t *testing.T) {
	s := converged(t, 20)
	pub := s.actors[5]
	n := pub.node
	key := upkeepKeys(1)[0]
	v := proto.DHTProvider{Domain: 1, RM: 5}
	pub.publish(key, v)
	const span = 4 * DefaultProviderTTL
	// Half a period past the span, so no count falls on a round.
	for at := sim.Time(0); at < span+DefaultRepublishPeriod/2; at += sim.Second {
		s.run(sim.Second)
		holders := n.published[key].holders
		if len(holders) != DefaultK {
			t.Fatalf("%v after publishing: %d holders, want %d", at+sim.Second, len(holders), DefaultK)
		}
		for _, h := range holders {
			if got := s.actors[h].node.StoreDiag().Get(key, s.eng.Now()); !slices.Equal(got, []proto.DHTProvider{v}) {
				t.Fatalf("%v after publishing: holder %d stores %v, want [%v]", at+sim.Second, h, got, v)
			}
		}
	}
	want := uint64(DefaultK) * uint64(1+span/(DefaultProviderTTL-DefaultRepublishPeriod))
	if got := n.Stats().StoresSent; got != want {
		t.Fatalf("%d STOREs over four TTLs, want %d", got, want)
	}
}
