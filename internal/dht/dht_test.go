package dht

import (
	"slices"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
)

func TestNodeKeyDeterministicAndDistinct(t *testing.T) {
	seen := map[proto.DHTKey]env.NodeID{}
	for id := env.NodeID(0); id < 2000; id++ {
		k := NodeKey(id)
		if k2 := NodeKey(id); k2 != k {
			t.Fatalf("NodeKey(%d) unstable", id)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("NodeKey collision: nodes %d and %d", prev, id)
		}
		seen[k] = id
	}
}

func TestKeyNamespaces(t *testing.T) {
	if Key("obj", "movie-1") == Key("svc", "movie-1") {
		t.Fatal("kind does not partition the key space")
	}
	if Key("obj", "movie-1") == Key("obj", "movie-2") {
		t.Fatal("distinct names collide")
	}
	if Key("obj", "movie-1") != Key("obj", "movie-1") {
		t.Fatal("Key unstable")
	}
	// Separator property: the (kind, name) split must matter.
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("kind/name boundary ambiguous")
	}
}

func TestXORMetric(t *testing.T) {
	a, b := NodeKey(1), NodeKey(2)
	if Distance(a, b) != Distance(b, a) {
		t.Fatal("distance not symmetric")
	}
	if Distance(a, a) != (proto.DHTKey{}) {
		t.Fatal("self-distance not zero")
	}
	if BucketIndex(a, a) != -1 {
		t.Fatal("equal keys must have bucket index -1")
	}
	if i := BucketIndex(a, b); i < 0 || i >= KeyBits {
		t.Fatalf("bucket index %d out of range", i)
	}
	if CloserTo(a, a, b) != true || CloserTo(a, b, a) != false {
		t.Fatal("CloserTo broken at distance zero")
	}
}

// TestTableLRUAndFullBucket: a full bucket refuses a newcomer and keeps
// its occupants, hearing from an occupant again changes nothing, and a
// removed occupant's slot goes to the next newcomer.
func TestTableLRUAndFullBucket(t *testing.T) {
	tb := NewTable(0, 2)
	// Find three nodes sharing one bucket relative to node 0.
	var ids []env.NodeID
	want := -1
	for id := env.NodeID(1); len(ids) < 3 && id < 10000; id++ {
		i := BucketIndex(tb.SelfKey(), NodeKey(id))
		if want == -1 {
			want, ids = i, append(ids, id)
		} else if i == want {
			ids = append(ids, id)
		}
	}
	if len(ids) < 3 {
		t.Fatal("could not find three same-bucket nodes")
	}
	tb.Update(ids[0])
	tb.Update(ids[1])
	tb.Update(ids[2]) // bucket full: refused
	if tb.Contains(ids[2]) || !tb.Contains(ids[0]) || !tb.Contains(ids[1]) {
		t.Fatal("a full bucket let a newcomer in or lost an occupant")
	}
	before := slices.Clone(tb.buckets[want])
	tb.Update(ids[0])
	if !slices.Equal(tb.buckets[want], before) || tb.gen != 2 {
		t.Fatalf("hearing from an occupant changed the bucket: %v, was %v (gen %d)", tb.buckets[want], before, tb.gen)
	}
	// An RPC timeout removes ids[1]; the next newcomer takes the slot.
	tb.Remove(ids[1])
	tb.Update(ids[2])
	if !tb.Contains(ids[2]) || tb.Contains(ids[1]) {
		t.Fatal("replacement not applied")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

func TestTableClosestOrder(t *testing.T) {
	tb := NewTable(0, 4)
	for id := env.NodeID(1); id <= 64; id++ {
		tb.Update(id)
	}
	target := Key("obj", "x")
	got := tb.Closest(target, 8)
	if len(got) == 0 {
		t.Fatal("no contacts")
	}
	for i := 1; i < len(got); i++ {
		if CloserTo(target, NodeKey(got[i]), NodeKey(got[i-1])) {
			t.Fatalf("Closest not distance-ordered at %d", i)
		}
	}
	// Self never appears.
	for _, id := range got {
		if id == 0 {
			t.Fatal("self listed as contact")
		}
	}
}

func TestStoreTTL(t *testing.T) {
	s := NewStore()
	k := Key("obj", "movie-1")
	s.Put(k, proto.DHTProvider{Domain: 1, RM: 5}, 0, 100)
	s.Put(k, proto.DHTProvider{Domain: 2, RM: 9}, 50, 100)
	if got := s.Get(k, 99); len(got) != 2 {
		t.Fatalf("Get before expiry = %d records, want 2", len(got))
	} else if got[0].Domain != 1 || got[1].Domain != 2 {
		t.Fatalf("records not in domain order: %+v", got)
	}
	if got := s.Get(k, 120); len(got) != 1 || got[0].Domain != 2 {
		t.Fatalf("Get after partial expiry = %+v, want domain 2 only", got)
	}
	if n := s.Expire(120); n != 1 {
		t.Fatalf("Expire dropped %d, want 1", n)
	}
	if n := s.Expire(1000); n != 1 {
		t.Fatalf("final Expire dropped %d, want 1", n)
	}
	if s.Len() != 0 || s.Records() != 0 {
		t.Fatal("store not empty after full expiry")
	}
	// Republish (a fresh Put) extends the deadline in place.
	s.Put(k, proto.DHTProvider{Domain: 1, RM: 5}, 0, 100)
	s.Put(k, proto.DHTProvider{Domain: 1, RM: 5}, 90, 100)
	if got := s.Get(k, 150); len(got) != 1 {
		t.Fatal("republish did not extend the record")
	}
}
