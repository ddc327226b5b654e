package dht

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/sim"
)

// BenchmarkDHTLookup measures one iterative provider lookup across a
// converged 256-node overlay, including the simulated message routing —
// the hot path the p2pbench ratchet guards. Each op runs 10 s of the
// overlay, so it also prices that long of refresh and republish upkeep.
func BenchmarkDHTLookup(b *testing.B) {
	s := newSwarm(1, 256, testNet(), Config{})
	s.run(45 * sim.Second)

	key := Key("obj", "bench")
	s.actors[3].publish(key, proto.DHTProvider{Domain: 1, RM: 3})
	s.run(5 * sim.Second)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit := false
		s.actors[200].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
			hit = len(vs) > 0
		})
		s.run(10 * sim.Second)
		if !hit {
			b.Fatal("lookup missed")
		}
	}
}
