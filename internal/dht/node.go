package dht

import (
	"slices"
	"sort"

	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Config tunes one DHT node. Zero values select the defaults.
type Config struct {
	// K is the bucket capacity and the result-set width of lookups.
	K int
	// Alpha is the lookup parallelism: probes kept in flight at once.
	Alpha int
	// ProviderTTL expires stored provider records; publishers must
	// republish faster than this or their records vanish under them.
	ProviderTTL sim.Time
	// RepublishPeriod is the publishers' re-Publish cadence. The node
	// itself keeps no republish timer; its owner calls Publish again,
	// and a call re-stores an unchanged record only when the holders'
	// copies would expire before the next one.
	RepublishPeriod sim.Time
	// RefreshPeriod sweeps expired provider records and draws a random
	// key, walking it when its bucket went untouched for a whole period.
	RefreshPeriod sim.Time
	// RPCTimeout bounds one request/response exchange; a contact that
	// misses it is removed from the routing table, which frees its slot.
	RPCTimeout sim.Time
}

// Defaults mirror Kademlia's classic parameters scaled to the repo's
// protocol cadence (heartbeats at 500ms, gossip at 3s).
const (
	DefaultK               = 16
	DefaultAlpha           = 3
	DefaultProviderTTL     = 30 * sim.Second
	DefaultRepublishPeriod = 10 * sim.Second
	DefaultRefreshPeriod   = 15 * sim.Second
	DefaultRPCTimeout      = 2 * sim.Second
)

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.ProviderTTL <= 0 {
		c.ProviderTTL = DefaultProviderTTL
	}
	if c.RepublishPeriod <= 0 {
		c.RepublishPeriod = DefaultRepublishPeriod
	}
	if c.RefreshPeriod <= 0 {
		c.RefreshPeriod = DefaultRefreshPeriod
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	return c
}

// Stats counts one node's DHT activity since start.
type Stats struct {
	Lookups     uint64
	LookupHits  uint64
	RPCsSent    uint64
	RPCTimeouts uint64
	StoresSent  uint64
	Expired     uint64
	// WalksSaved counts Publish calls that stored straight to the
	// holders of the key's last walk instead of walking again.
	WalksSaved uint64
	// RestoresSkipped counts Publish calls that sent nothing: the value
	// was unchanged, its holders current, and their copies outlive the
	// next round.
	RestoresSkipped uint64
	// RefreshesSkipped counts refresh ticks whose random key fell in a
	// bucket that a lookup or a contact had touched within the period.
	RefreshesSkipped uint64
}

// Node is one DHT participant. It is actor-confined: every method must
// run on the owning peer's event loop (the env.Context's serialized
// executor), so there are no locks and no concurrent state.
type Node struct {
	ctx   env.Context
	cfg   Config
	table *Table
	store *Store

	published map[proto.DHTKey]*publication
	nextRPC   uint64
	calls     map[uint64]*pendingCall
	cancels   []env.Cancel
	stats     Stats

	// OnLookupDone, when set, observes every finished provider lookup:
	// whether any record was found and the elapsed virtual/wall time.
	OnLookupDone func(hit bool, elapsed sim.Time)
}

// publication is one key this node publishes, with the K-closest set
// its last walk returned and what that set was last sent.
type publication struct {
	val     proto.DHTProvider // the latest value published
	sent    proto.DHTProvider // the value last stored to the holders
	sentAt  sim.Time          // the Publish call that stored it
	holders []env.NodeID      // in distance order to the key
	walked  sim.Time          // when that walk finished
	gen     uint64            // the table's generation then
	walking bool
}

// pendingCall is one outstanding RPC.
type pendingCall struct {
	to      env.NodeID
	timeout env.Cancel
	// done receives the response (ok=true) or the timeout (ok=false).
	done func(ids []env.NodeID, values []proto.DHTProvider, ok bool)
}

// NewNode creates a DHT node on the given actor context.
func NewNode(ctx env.Context, cfg Config) *Node {
	cfg = cfg.withDefaults()
	return &Node{
		ctx:       ctx,
		cfg:       cfg,
		table:     NewTable(ctx.Self(), cfg.K),
		store:     NewStore(),
		published: make(map[proto.DHTKey]*publication),
		calls:     make(map[uint64]*pendingCall),
	}
}

// Table exposes the routing table (diagnostics, tests).
func (n *Node) Table() *Table { return n.table }

// StoreDiag exposes the provider store (diagnostics, tests).
func (n *Node) StoreDiag() *Store { return n.store }

// Stats returns a copy of the activity counters.
func (n *Node) Stats() Stats { return n.stats }

// Published returns how many keys this node publishes.
func (n *Node) Published() int { return len(n.published) }

// Seed adds bootstrap contacts and, when any stick, walks toward the
// node's own ID to populate nearby buckets.
func (n *Node) Seed(ids ...env.NodeID) {
	added := false
	for _, id := range ids {
		if id == env.NoNode || id == n.ctx.Self() {
			continue
		}
		n.table.Update(id)
		added = true
	}
	if added {
		n.lookup(n.table.SelfKey(), false, proto.TraceContext{}, nil)
	}
}

// Start arms the periodic maintenance work: provider-record expiry and
// bucket refresh. Call once, on the owning actor's loop.
func (n *Node) Start() {
	n.cancels = append(n.cancels, env.Every(n.ctx, n.cfg.RefreshPeriod, n.cfg.RefreshPeriod, n.refresh))
}

// refresh sweeps expired records and walks a random key, unless a lookup
// or a contact touched that key's bucket since the previous tick, one
// RefreshPeriod ago (Kademlia §2.5). The key is drawn either way, so the
// node's random stream does not depend on which buckets are fresh. The
// walk's own touch opens the next period.
func (n *Node) refresh() {
	n.stats.Expired += uint64(n.store.Expire(n.ctx.Now()))
	key := expand(n.ctx.Rand().Uint64())
	stale := n.table.stale(key)
	n.table.untouch()
	if !stale {
		n.stats.RefreshesSkipped++
		return
	}
	n.lookup(key, false, proto.TraceContext{}, nil)
}

// Stop cancels timers and outstanding RPC timeouts. The node must not
// be used afterwards.
func (n *Node) Stop() {
	for _, c := range n.cancels {
		c.Cancel()
	}
	n.cancels = nil
	for _, rpc := range sortedRPCs(n.calls) {
		n.calls[rpc].timeout.Cancel()
	}
	n.calls = make(map[uint64]*pendingCall)
}

// sortedRPCs returns the outstanding RPC ids in order.
func sortedRPCs(m map[uint64]*pendingCall) []uint64 {
	out := make([]uint64, 0, len(m))
	for rpc := range m { //lint:maporder commutative — collected ids are sorted below before anything observes them
		out = append(out, rpc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HandleMessage consumes DHT protocol traffic; false means the message
// is not a DHT message and belongs to another subsystem. It runs on
// the runtimes' delivery paths, so all time must come through the
// injected env.Context (replay:recorded).
func (n *Node) HandleMessage(from env.NodeID, m env.Message) bool {
	switch v := m.(type) {
	case proto.FindNode:
		n.table.Update(from)
		n.ctx.Send(from, proto.Nodes{RPC: v.RPC, IDs: n.table.Closest(v.Target, n.cfg.K)})
	case proto.FindValue:
		n.table.Update(from)
		n.ctx.Send(from, proto.Providers{
			RPC:    v.RPC,
			Values: n.store.Get(v.Key, n.ctx.Now()),
			IDs:    n.table.Closest(v.Key, n.cfg.K),
		})
	case proto.Store:
		n.table.Update(from)
		n.store.Put(v.Key, v.Provider, n.ctx.Now(), n.cfg.ProviderTTL)
	case proto.Nodes:
		n.table.Update(from)
		n.resolve(v.RPC, v.IDs, nil)
	case proto.Providers:
		n.table.Update(from)
		n.resolve(v.RPC, v.IDs, v.Values)
	default:
		return false
	}
	return true
}

// Publish stores a provider under key locally and at the K closest
// nodes. The owner calls it again every RepublishPeriod to keep the
// record alive, until Unpublish. A call stores straight to the holders
// the key's last walk found while that set is still current (see
// current); otherwise it walks again first. A call whose value is the
// one those holders were last sent, while the set is current, sends
// nothing until their copies would expire before the next call: records
// are re-stored to beat expiry, not every round (Kademlia §2.5). While a
// walk is in flight, a call only updates the value that walk will store.
func (n *Node) Publish(key proto.DHTKey, v proto.DHTProvider) {
	now := n.ctx.Now()
	n.store.Put(key, v, now, n.cfg.ProviderTTL)
	p := n.published[key]
	if p == nil {
		p = &publication{}
		n.published[key] = p
	}
	p.val = v
	switch {
	case p.walking:
		// The walk stores p.val when it lands.
	case !n.current(key, p):
		p.walking = true
		n.lookup(key, false, proto.TraceContext{}, func(ids []env.NodeID, _ []proto.DHTProvider) {
			p.walking = false
			p.holders, p.walked, p.gen = ids, n.ctx.Now(), n.table.gen
			if n.published[key] == p {
				n.storeTo(key, p, now)
			}
		})
	case v == p.sent && p.sentAt+n.cfg.ProviderTTL > now+n.cfg.RepublishPeriod:
		n.stats.RestoresSkipped++
	default:
		n.stats.WalksSaved++
		n.storeTo(key, p, now)
	}
}

// Underheld reports whether the last walk for a published key found
// fewer than K holders: it ran from a table too small to know the key's
// K closest nodes, or it has not landed yet.
func (n *Node) Underheld(key proto.DHTKey) bool {
	p := n.published[key]
	return p != nil && len(p.holders) < n.cfg.K
}

// current reports whether the holders of p's last walk are still the K
// closest nodes to key as far as this node can tell: the walk is younger
// than ProviderTTL, the routing table has had no insert or remove since
// (a holder removed by RPC timeout is a remove), and the table knows no
// contact closer than the farthest holder that the set lacks. The last
// case covers a contact inserted during the walk by traffic the walk
// never saw, such as another node's request.
func (n *Node) current(key proto.DHTKey, p *publication) bool {
	if len(p.holders) == 0 || n.ctx.Now()-p.walked >= n.cfg.ProviderTTL || n.table.gen != p.gen {
		return false
	}
	far := NodeKey(p.holders[len(p.holders)-1])
	for _, id := range n.table.Closest(key, n.cfg.K) {
		if len(p.holders) == n.cfg.K && !CloserTo(key, NodeKey(id), far) {
			break
		}
		if !slices.Contains(p.holders, id) {
			return false
		}
	}
	return true
}

// Unpublish stops publishing key. Already-stored copies age out via
// the receivers' TTL — the staleness window the E-series experiment
// measures.
func (n *Node) Unpublish(key proto.DHTKey) {
	delete(n.published, key)
}

// LookupProviders runs an iterative lookup for provider records under
// key and calls done exactly once with the records found (nil on miss).
// tc propagates the causal trace of the task that triggered the lookup.
func (n *Node) LookupProviders(key proto.DHTKey, tc proto.TraceContext, done func([]proto.DHTProvider)) {
	n.stats.Lookups++
	started := n.ctx.Now()
	n.lookup(key, true, tc, func(_ []env.NodeID, values []proto.DHTProvider) {
		hit := len(values) > 0
		if hit {
			n.stats.LookupHits++
		}
		if n.OnLookupDone != nil {
			n.OnLookupDone(hit, n.ctx.Now()-started)
		}
		if done != nil {
			done(values)
		}
	})
}

// LookupNode finds the K closest live contacts to target.
func (n *Node) LookupNode(target proto.DHTKey, done func([]env.NodeID)) {
	n.lookup(target, false, proto.TraceContext{}, func(ids []env.NodeID, _ []proto.DHTProvider) {
		if done != nil {
			done(ids)
		}
	})
}

// storeTo hands each of p's holders a copy of its latest value, on
// behalf of the Publish call made at the given time. A walk's STOREs
// leave after that call, so their copies outlive what p records.
func (n *Node) storeTo(key proto.DHTKey, p *publication, at sim.Time) {
	p.sent, p.sentAt = p.val, at
	for _, id := range p.holders {
		n.stats.StoresSent++
		n.ctx.Send(id, proto.Store{Key: key, Provider: p.val})
	}
}

// call issues one RPC with a timeout. build receives the assigned RPC
// id; done fires exactly once.
func (n *Node) call(to env.NodeID, build func(rpc uint64) env.Message, done func([]env.NodeID, []proto.DHTProvider, bool)) {
	n.nextRPC++
	rpc := n.nextRPC
	pc := &pendingCall{to: to, done: done}
	pc.timeout = n.ctx.After(n.cfg.RPCTimeout, func() {
		if _, live := n.calls[rpc]; !live {
			return
		}
		delete(n.calls, rpc)
		n.stats.RPCTimeouts++
		n.table.Remove(to)
		done(nil, nil, false)
	})
	n.calls[rpc] = pc
	n.stats.RPCsSent++
	n.ctx.Send(to, build(rpc))
}

// resolve matches a response to its outstanding call. Unknown RPC ids
// (late responses after timeout, replays) are dropped silently.
func (n *Node) resolve(rpc uint64, ids []env.NodeID, values []proto.DHTProvider) {
	pc, ok := n.calls[rpc]
	if !ok {
		return
	}
	delete(n.calls, rpc)
	pc.timeout.Cancel()
	pc.done(ids, values, true)
}

// --- iterative lookup ---

// lookupState values for one candidate.
const (
	candNew = iota
	candInflight
	candResponded
	candFailed
)

// lookup is one iterative walk: keep the Alpha closest unqueried
// candidates in flight until the K closest known contacts have all
// responded (or everything reachable has been tried). Value lookups
// finish early on the first response carrying provider records —
// records live on the K closest nodes to the key, so the first hit
// already holds the full set.
type lookup struct {
	n         *Node
	target    proto.DHTKey
	wantValue bool
	tc        proto.TraceContext
	tw        words    // target, for distances
	shortlist []ranked // distance order, deduped
	state     map[env.NodeID]int
	unqueried []env.NodeID // step's scratch
	inflight  int
	finished  bool
	done      func([]env.NodeID, []proto.DHTProvider)
}

func (n *Node) lookup(target proto.DHTKey, wantValue bool, tc proto.TraceContext, done func([]env.NodeID, []proto.DHTProvider)) {
	n.table.touchKey(target)
	lk := &lookup{
		n:         n,
		target:    target,
		tw:        toWords(target),
		wantValue: wantValue,
		tc:        tc,
		state:     make(map[env.NodeID]int),
		done:      done,
	}
	for _, id := range n.table.Closest(target, n.cfg.K) {
		lk.add(id)
	}
	lk.step()
}

// add inserts a candidate in distance order (ignoring self and known
// duplicates).
func (lk *lookup) add(id env.NodeID) {
	if id == env.NoNode || id == lk.n.ctx.Self() {
		return
	}
	if _, ok := lk.state[id]; ok {
		return
	}
	lk.state[id] = candNew
	r := ranked{dist: toWords(NodeKey(id)).xor(lk.tw), id: id}
	at := sort.Search(len(lk.shortlist), func(i int) bool { return !lk.shortlist[i].before(r) })
	lk.shortlist = append(lk.shortlist, ranked{})
	copy(lk.shortlist[at+1:], lk.shortlist[at:])
	lk.shortlist[at] = r
}

// step tops the probe window back up to Alpha and detects termination.
func (lk *lookup) step() {
	if lk.finished {
		return
	}
	// Termination scan over the K closest: done when none are unqueried
	// and none are in flight (failed ones are written off).
	unqueried := lk.unqueried[:0]
	settled := 0
	for i := 0; i < len(lk.shortlist) && settled < lk.n.cfg.K; i++ {
		id := lk.shortlist[i].id
		switch lk.state[id] {
		case candNew:
			unqueried = append(unqueried, id)
			settled++
		case candResponded, candInflight:
			settled++
		}
	}
	lk.unqueried = unqueried
	if len(unqueried) == 0 && lk.inflight == 0 {
		lk.finish(nil)
		return
	}
	for _, id := range unqueried {
		if lk.inflight >= lk.n.cfg.Alpha {
			break
		}
		lk.query(id)
	}
	// A failure can empty the window while unqueried candidates hide
	// beyond the K horizon; the scan above already widened through
	// failed entries, so nothing more to do here.
	if lk.inflight == 0 && !lk.finished {
		lk.finish(nil)
	}
}

func (lk *lookup) query(id env.NodeID) {
	lk.state[id] = candInflight
	lk.inflight++
	build := func(rpc uint64) env.Message {
		if lk.wantValue {
			return proto.FindValue{RPC: rpc, Key: lk.target, TC: lk.tc}
		}
		return proto.FindNode{RPC: rpc, Target: lk.target, TC: lk.tc}
	}
	lk.n.call(id, build, func(ids []env.NodeID, values []proto.DHTProvider, ok bool) {
		lk.inflight--
		if !ok {
			lk.state[id] = candFailed
			lk.step()
			return
		}
		lk.state[id] = candResponded
		if lk.wantValue && len(values) > 0 {
			lk.finish(values)
			return
		}
		for _, c := range ids {
			lk.add(c)
		}
		lk.step()
	})
}

// finish reports the K closest responded contacts (and any values) and
// seals the lookup; late responses still update the routing table but
// cannot re-fire done.
func (lk *lookup) finish(values []proto.DHTProvider) {
	if lk.finished {
		return
	}
	lk.finished = true
	var closest []env.NodeID
	for _, c := range lk.shortlist {
		if lk.state[c.id] == candResponded {
			closest = append(closest, c.id)
			if len(closest) == lk.n.cfg.K {
				break
			}
		}
	}
	if lk.done != nil {
		lk.done(closest, values)
	}
}
