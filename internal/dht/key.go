// Package dht implements a Kademlia-style structured overlay for
// inter-domain discovery: 160-bit XOR-metric keys, k-bucket routing
// tables with least-recently-seen eviction gated on liveness pings,
// iterative parallel lookup (α concurrent probes), and TTL'd provider
// records with publisher-side republish.
//
// The package is determinism-critical: it runs under the discrete-event
// simulator and must keep equal-seed runs byte-identical. All time
// comes from the injected env.Clock, all randomness from the injected
// rng stream, and every map iteration that can escape is over sorted
// keys. Node IDs are derived from env.NodeID with internal/rng seed
// material, so both runtimes (and every process in a multi-daemon
// deployment) agree on the key space without exchanging IDs.
package dht

import (
	"encoding/binary"

	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/rng"
)

// KeyBits is the key-space width: 20-byte keys, one k-bucket per bit.
const KeyBits = 8 * len(proto.DHTKey{})

// Stream labels for rng.Derive: node-ID derivation and name hashing use
// distinct labeled substreams of the shared contract so the two key
// families cannot collide structurally.
const (
	nodeSalt = 0x64687464_6e6f6465 // "dhtdnode"
	nameSalt = 0x64687464_6e616d65 // "dhtdname"
)

// NodeKey derives a node's DHT ID from its runtime NodeID. The
// derivation is pure splitmix expansion of rng seed material — both
// runtimes and every process agree on it, and it never travels on the
// wire.
func NodeKey(id env.NodeID) proto.DHTKey {
	return expand(rng.Derive(nodeSalt, uint64(int64(id))))
}

// Key maps a discovery name (an object or service catalog entry) into
// the key space. kind partitions the namespaces ("obj", "svc", "dir").
func Key(kind, name string) proto.DHTKey {
	// FNV-1a over kind and name, with a separator byte so ("ab","c")
	// and ("a","bc") differ.
	h := uint64(0xcbf29ce484222325)
	step := func(b byte) { h ^= uint64(b); h *= 0x100000001b3 }
	for i := 0; i < len(kind); i++ {
		step(kind[i])
	}
	step(0)
	for i := 0; i < len(name); i++ {
		step(name[i])
	}
	return expand(rng.Derive(nameSalt, h))
}

// expand stretches one 64-bit seed into a full-width key by drawing
// successive splitmix words.
func expand(seed uint64) proto.DHTKey {
	r := rng.New(seed)
	var k proto.DHTKey
	binary.BigEndian.PutUint64(k[0:8], r.Uint64())
	binary.BigEndian.PutUint64(k[8:16], r.Uint64())
	binary.BigEndian.PutUint32(k[16:20], uint32(r.Uint64()>>32))
	return k
}

// Distance is the XOR metric.
func Distance(a, b proto.DHTKey) proto.DHTKey {
	var d proto.DHTKey
	for i := range d {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// Less orders keys as big-endian unsigned integers.
func Less(a, b proto.DHTKey) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// CloserTo reports whether x is strictly closer to target than y.
func CloserTo(target, x, y proto.DHTKey) bool {
	for i := range target {
		dx, dy := x[i]^target[i], y[i]^target[i]
		if dx != dy {
			return dx < dy
		}
	}
	return false
}

// BucketIndex returns the k-bucket index for a contact at the given XOR
// distance from self: the position of the highest set bit
// (0..KeyBits-1), or -1 when the keys are equal.
func BucketIndex(self, other proto.DHTKey) int {
	return toWords(self).xor(toWords(other)).bucket()
}
