package dht

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/rng"
)

// refClosest is the sort-based Closest the bucket-order walk replaced,
// kept test-only as its oracle: collect every contact, sort the whole
// table by (XOR distance to target, NodeID), keep the first n.
func refClosest(t *Table, target proto.DHTKey, n int) []env.NodeID {
	keys := make(map[env.NodeID]proto.DHTKey, t.Len())
	out := make([]env.NodeID, 0, t.Len())
	for i := range t.buckets {
		for _, c := range t.buckets[i] {
			keys[c.id] = NodeKey(c.id)
			out = append(out, c.id)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ka, kb := keys[out[a]], keys[out[b]]
		if ka == kb {
			return out[a] < out[b]
		}
		return CloserTo(target, ka, kb)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// tableModel is the plain-map model of a Table: the set of contacts
// held. Contact ids lie in [0, limit), so the model walks them in id
// order, never in map order.
type tableModel struct {
	self  env.NodeID
	k     int
	limit env.NodeID
	seen  map[env.NodeID]bool
}

// held returns the contacts held, in id order.
func (m *tableModel) held() []env.NodeID {
	var out []env.NodeID
	for c := env.NodeID(0); c < m.limit; c++ {
		if m.seen[c] {
			out = append(out, c)
		}
	}
	return out
}

func (m *tableModel) bucketOf(id env.NodeID) int {
	return BucketIndex(NodeKey(m.self), NodeKey(id))
}

// update mirrors Table.Update: insert a newcomer when its bucket has
// room, and report whether a full bucket refused it.
func (m *tableModel) update(id env.NodeID) (refused bool) {
	if id == m.self || id == env.NoNode || m.seen[id] {
		return false
	}
	size := 0
	for _, c := range m.held() {
		if m.bucketOf(c) == m.bucketOf(id) {
			size++
		}
	}
	if size == m.k {
		return true
	}
	m.seen[id] = true
	return false
}

func (m *tableModel) bucketSizes() [][2]int {
	var sizes [KeyBits]int
	for _, c := range m.held() {
		sizes[m.bucketOf(c)]++
	}
	var out [][2]int
	for i, n := range sizes {
		if n > 0 {
			out = append(out, [2]int{i, n})
		}
	}
	return out
}

// TestClosestMatchesReference drives tables through random Update and
// Remove sequences (full-bucket refusals and refreshes included) and,
// after every operation, checks Len, Contains and BucketSizes against
// the map model and Closest against refClosest element for element, for
// random targets, the owner's key, and the keys of held and just-removed
// contacts.
func TestClosestMatchesReference(t *testing.T) {
	var total opCounts
	for _, k := range []int{1, 2, 4, 16} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("k=%d/seed=%d", k, seed), func(t *testing.T) {
				c := checkTableAgainstModel(t, rng.New(seed*1000+uint64(k)), k)
				total.refused += c.refused
				total.refreshed += c.refreshed
				total.removed += c.removed
			})
		}
	}
	if !t.Failed() && (total.refused == 0 || total.refreshed == 0 || total.removed == 0) {
		t.Fatalf("operation mix missed a path: %+v", total)
	}
}

// opCounts tallies the Update and Remove paths one table went through.
type opCounts struct{ refused, refreshed, removed int }

func checkTableAgainstModel(t *testing.T, r *rng.Rand, k int) opCounts {
	var counts opCounts
	self := env.NodeID(r.Intn(50))
	tb := NewTable(self, k)
	if got := tb.Closest(tb.SelfKey(), 0); got == nil || len(got) != 0 {
		t.Fatalf("Closest(self, 0) on an empty table = %#v, want an empty slice", got)
	}
	ops := 1 + r.Intn(600)
	pool := 2 + ops/2 // ids are drawn from a pool smaller than ops, so refreshes happen
	m := &tableModel{self: self, k: k, limit: env.NodeID(pool + 10), seen: map[env.NodeID]bool{}}
	var removed env.NodeID = env.NoNode
	for op := 0; op < ops; op++ {
		var id env.NodeID
		if r.Bool(0.2) && len(m.seen) > 0 {
			// Remove a held contact, or (rarely) one the table lacks.
			id = pickHeld(r, m)
			if r.Bool(0.1) {
				id = env.NodeID(pool + r.Intn(10))
			}
			tb.Remove(id)
			delete(m.seen, id)
			removed = id
			counts.removed++
		} else {
			id = env.NodeID(r.Intn(pool))
			switch {
			case r.Bool(0.01):
				id = self
			case r.Bool(0.01):
				id = env.NoNode
			}
			if m.seen[id] {
				counts.refreshed++
			}
			tb.Update(id)
			if m.update(id) {
				counts.refused++
			}
		}

		if tb.Len() != len(m.seen) {
			t.Fatalf("op %d: Len = %d, model %d", op, tb.Len(), len(m.seen))
		}
		for _, c := range []env.NodeID{id, removed, self} {
			held := m.seen[c]
			if tb.Contains(c) != held {
				t.Fatalf("op %d: Contains(%d) = %v, model %v", op, c, !held, held)
			}
		}
		for _, c := range m.held() {
			if !tb.Contains(c) {
				t.Fatalf("op %d: Contains(%d) = false for a held contact", op, c)
			}
		}
		if got, want := tb.BucketSizes(), m.bucketSizes(); !slices.Equal(got, want) {
			t.Fatalf("op %d: BucketSizes = %v, model %v", op, got, want)
		}

		targets := []proto.DHTKey{expand(r.Uint64()), NodeKey(removed)}
		if len(m.seen) > 0 {
			targets = append(targets, NodeKey(pickHeld(r, m)))
		}
		if op%10 == 0 {
			targets = append(targets, tb.SelfKey())
		}
		for _, target := range targets {
			for _, n := range []int{0, 1, 3, k, tb.Len() + 1 + r.Intn(5)} {
				got, want := tb.Closest(target, n), refClosest(tb, target, n)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: Closest(%x, %d) = %v, reference %v", op, target, n, got, want)
				}
			}
		}
	}
	return counts
}

// pickHeld returns a uniformly drawn held contact.
func pickHeld(r *rng.Rand, m *tableModel) env.NodeID {
	held := m.held()
	return held[r.Intn(len(held))]
}
