package core

import (
	"fmt"
	"testing"

	"repro/internal/bloom"
	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/proto"
	"repro/internal/rng"
)

// gossipSink keeps the benchmark's lookup result live.
var gossipSink env.NodeID

// BenchmarkRMGossipRound times an RM's share of one anti-entropy round
// in sim-churn's shape: an RM with four members that holds summaries of
// 75 remote domains answers a digest that is behind on every domain
// (its own summary and all 75 cached ones), then resolves one object
// against the cached Bloom filters.
func BenchmarkRMGossipRound(b *testing.B) {
	cfg := DefaultConfig()
	ctx := &scriptCtx{r: rng.New(1)}
	f := media.Format{Codec: media.MPEG2, Width: 800, Height: 600, BitrateKbps: 512}
	ladder := []media.Transcoder{
		{From: f, To: media.Format{Codec: media.MPEG4, Width: 640, Height: 480, BitrateKbps: 128}},
		{From: f, To: media.Format{Codec: media.H263, Width: 320, Height: 240, BitrateKbps: 64}},
	}
	info := func(i int) proto.PeerInfo {
		return proto.PeerInfo{SpeedWU: 10, BandwidthKbps: 5000, Services: ladder,
			Objects: []media.Object{{Name: fmt.Sprintf("local-%d", i), Format: f, Bytes: 1 << 20}}}
	}
	p := New(cfg, info(0), env.NoNode, nil)
	p.Init(ctx)
	for i := 1; i <= 4; i++ {
		p.rmHandleJoin(env.NodeID(i), proto.Join{Info: info(i)})
	}
	const domains = 75
	var sums proto.GossipSummaries
	for d := 1; d <= domains; d++ {
		objects := bloom.New(cfg.BloomM, cfg.BloomK)
		for o := 0; o < 8; o++ {
			objects.AddString(fmt.Sprintf("obj-%d-%d", d, o))
		}
		id := proto.DomainID(100 + d)
		sums.Summaries = append(sums.Summaries, proto.DomainSummary{
			Domain: id, RM: env.NodeID(id), Version: 1, NumPeers: 4, AvgUtil: float64(d%7) / 10,
			ObjectBloom: objects.Bytes(), ServiceBloom: bloom.New(cfg.BloomM, cfg.BloomK).Bytes(),
			BloomM: cfg.BloomM, BloomK: cfg.BloomK,
		})
	}
	p.rmHandleGossipSummaries(101, sums)
	disc := p.disc.(*gossipDiscovery)
	digest := proto.GossipDigest{From: proto.RMRef{Domain: 101, RM: 101}}
	if disc.pickObjectDomain("obj-60-3") != 160 {
		b.Fatal("lookup did not resolve to the holding domain")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.rmHandleGossipDigest(101, digest)
		gossipSink = disc.pickObjectDomain("obj-60-3")
	}
}
