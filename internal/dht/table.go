package dht

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/env"
	"repro/internal/proto"
)

// words is a key as three big-endian words; the last holds key bytes
// 16..19 in its high half, so comparing words in order compares the
// keys as unsigned integers and XOR distances stay word-wise.
type words [3]uint64

func toWords(k proto.DHTKey) words {
	return words{
		binary.BigEndian.Uint64(k[0:8]),
		binary.BigEndian.Uint64(k[8:16]),
		uint64(binary.BigEndian.Uint32(k[16:20])) << 32,
	}
}

func (a words) xor(b words) words { return words{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]} }

// bucket is the k-bucket index of XOR distance d: the position of its
// highest set bit, or -1 for zero.
func (d words) bucket() int {
	for w, x := range d {
		if x != 0 {
			return KeyBits - 1 - (64*w + bits.LeadingZeros64(x))
		}
	}
	return -1
}

// contact is one routing-table entry.
type contact struct {
	id  env.NodeID
	key words
}

// ranked is a candidate for the nearest contacts to a target, carrying
// its distance so comparisons need no key lookup.
type ranked struct {
	dist words
	id   env.NodeID
}

// before orders candidates by distance, then NodeID.
func (a ranked) before(b ranked) bool {
	for w := range a.dist {
		if a.dist[w] != b.dist[w] {
			return a.dist[w] < b.dist[w]
		}
	}
	return a.id < b.id
}

// Table is a Kademlia routing table: one bucket per distance bit, each
// holding up to k contacts. A full bucket refuses newcomers and never
// evicts a contact that still answers: a contact leaves only when its
// owner removes it after an RPC to it timed out, and the next newcomer
// heard in that bucket takes the slot. Kademlia's "old contacts stay"
// rule biases the table toward long-lived peers; as in its §4.1, no
// liveness probe goes out before there is a useful message to send, so
// the table needs no least-recently-seen order.
// Like the Node that owns it, a Table is confined to one event loop:
// Closest reuses a scratch buffer across calls.
type Table struct {
	selfID  env.NodeID
	self    proto.DHTKey
	k       int
	n       int
	buckets [KeyBits][]contact // index 0 = closest half-space
	scratch []ranked
	// gen counts every insert and remove, and nothing else, so a cached
	// lookup result can tell whether the table it was walked from still
	// stands.
	gen uint64
	// touched holds one bit per bucket, set when a lookup into the
	// bucket's range starts or a contact in it is heard from, and
	// cleared by untouch.
	touched [(KeyBits + 63) / 64]uint64
}

// NewTable creates a table for the given node with bucket capacity k.
func NewTable(self env.NodeID, k int) *Table {
	return &Table{selfID: self, self: NodeKey(self), k: k}
}

// SelfKey returns the owner's key-space ID.
func (t *Table) SelfKey() proto.DHTKey { return t.self }

// Len returns the number of contacts held.
func (t *Table) Len() int { return t.n }

// touchKey marks the bucket whose range holds key as used: a lookup
// toward key started. The owner's own key has no bucket.
func (t *Table) touchKey(key proto.DHTKey) {
	t.touch(BucketIndex(t.self, key))
}

func (t *Table) touch(i int) {
	if i >= 0 {
		t.touched[i/64] |= 1 << (i % 64)
	}
}

// stale reports whether the bucket whose range holds key went untouched
// since the last untouch: no lookup into it started and no contact in it
// was heard from. Kademlia refreshes only such buckets.
func (t *Table) stale(key proto.DHTKey) bool {
	i := BucketIndex(t.self, key)
	return i < 0 || t.touched[i/64]&(1<<(i%64)) == 0
}

// untouch starts a new freshness period: every bucket reads stale until
// touched again.
func (t *Table) untouch() { t.touched = [len(t.touched)]uint64{} }

// find locates node: its bucket index (-1 for the owner's own key), its
// position in that bucket (-1 when absent) and its key.
func (t *Table) find(node env.NodeID) (i, j int, key words) {
	key = toWords(NodeKey(node))
	i = toWords(t.self).xor(key).bucket()
	if i < 0 {
		return i, -1, key
	}
	for j, c := range t.buckets[i] {
		if c.id == node {
			return i, j, key
		}
	}
	return i, -1, key
}

// Contains reports whether the node is in the table.
func (t *Table) Contains(node env.NodeID) bool {
	_, j, _ := t.find(node)
	return j >= 0
}

// Update records fresh evidence that node is alive, and touches its
// bucket. An unknown contact is inserted when its bucket has room and
// refused when it is full.
func (t *Table) Update(node env.NodeID) {
	if node == t.selfID || node == env.NoNode {
		return
	}
	i, j, key := t.find(node)
	if i < 0 {
		return
	}
	t.touch(i)
	if b := t.buckets[i]; j < 0 && len(b) < t.k {
		t.buckets[i] = append(b, contact{id: node, key: key})
		t.n++
		t.gen++
	}
}

// Remove drops a contact whose RPC timed out.
func (t *Table) Remove(node env.NodeID) {
	i, j, _ := t.find(node)
	if j < 0 {
		return
	}
	b := t.buckets[i]
	copy(b[j:], b[j+1:])
	t.buckets[i] = b[:len(b)-1]
	t.n--
	t.gen++
}

// Closest returns up to n contacts ordered by XOR distance to target
// (NodeID breaks exact ties, which cannot occur between distinct nodes
// but keeps the order total). The result is a fresh slice.
//
// Buckets are visited in distance order, so no global sort is needed.
// With j = BucketIndex(self, target), bucket j holds every contact
// closer than 2^j; buckets 0..j-1 together hold those in [2^j, 2^(j+1));
// each bucket i > j holds those in [2^i, 2^(i+1)). The n nearest are
// kept by insertion, and the walk stops after the first group that
// leaves n held, since every later group is strictly farther.
func (t *Table) Closest(target proto.DHTKey, n int) []env.NodeID {
	n = min(n, t.n)
	tw := toWords(target)
	j := toWords(t.self).xor(tw).bucket()
	sel := t.scratch[:0]
	if j >= 0 {
		sel = nearest(sel, n, t.buckets[j], tw)
	}
	if len(sel) < n {
		for i := range j {
			sel = nearest(sel, n, t.buckets[i], tw)
		}
	}
	for i := j + 1; i < KeyBits && len(sel) < n; i++ {
		sel = nearest(sel, n, t.buckets[i], tw)
	}
	t.scratch = sel
	out := make([]env.NodeID, len(sel))
	for i, r := range sel {
		out[i] = r.id
	}
	return out
}

// nearest offers every contact of b to sel, which holds at most n
// candidates in ascending distance to target words tw.
func nearest(sel []ranked, n int, b []contact, tw words) []ranked {
	for _, c := range b {
		r := ranked{dist: c.key.xor(tw), id: c.id}
		if len(sel) == n {
			if n == 0 || !r.before(sel[n-1]) {
				continue
			}
			sel = sel[:n-1]
		}
		at := len(sel)
		for at > 0 && r.before(sel[at-1]) {
			at--
		}
		sel = append(sel, ranked{})
		copy(sel[at+1:], sel[at:])
		sel[at] = r
	}
	return sel
}

// BucketSizes returns the occupancy of every non-empty bucket as
// (index, size) pairs in index order — the /dht diagnostics payload.
func (t *Table) BucketSizes() [][2]int {
	var out [][2]int
	for i := range t.buckets {
		if n := len(t.buckets[i]); n > 0 {
			out = append(out, [2]int{i, n})
		}
	}
	return out
}
