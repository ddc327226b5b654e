package workload

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
)

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxDomainPeers = 16
	r := rng.New(3)
	infos := cluster.PeerSpecs(r, n, cfg.Qualify, 0.6)
	cat := cluster.StandardCatalog()
	cat.Populate(r, infos, 4, 20, 3, 30)
	c := cluster.Build(cfg, netsim.Config{Latency: netsim.UniformLatency(10 * sim.Millisecond)}, 4, infos, 100*sim.Millisecond)
	c.RunUntil(c.Eng.Now() + 10*sim.Second)
	if c.JoinedCount() != n {
		t.Fatalf("joined %d/%d", c.JoinedCount(), n)
	}
	return c
}

func TestDriverSubmitsAtRate(t *testing.T) {
	c := testCluster(t, 12)
	d := NewDriver(c, cluster.StandardCatalog(), DefaultMix(), rng.New(9))
	start := c.Eng.Now()
	d.Run(start, start+60*sim.Second)
	c.RunUntil(start + 120*sim.Second)
	ev := c.Events.Snapshot()
	// ~60 arrivals expected at 1/s over 60s.
	if ev.Submitted < 35 || ev.Submitted > 90 {
		t.Fatalf("submitted = %d, want ≈60", ev.Submitted)
	}
	// The vast majority should be servable in a 12-peer domain set.
	if ev.Admitted == 0 {
		t.Fatalf("nothing admitted (rejected=%d)", ev.Rejected)
	}
	if ev.Admitted+ev.Rejected < ev.Submitted*9/10 {
		t.Fatalf("outcomes %d+%d lag submissions %d", ev.Admitted, ev.Rejected, ev.Submitted)
	}
}

func TestSpecShape(t *testing.T) {
	c := testCluster(t, 4)
	d := NewDriver(c, cluster.StandardCatalog(), DefaultMix(), rng.New(1))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := d.Spec()
		if s.ID == "" || seen[s.ID] {
			t.Fatalf("bad or duplicate spec ID %q", s.ID)
		}
		seen[s.ID] = true
		if !strings.HasPrefix(s.ObjectName, "obj-") {
			t.Fatalf("object name %q", s.ObjectName)
		}
		if s.DurationSec <= 0 || s.ChunkSec != 1 || s.DeadlineMicros != 2_000_000 {
			t.Fatalf("bad spec %+v", s)
		}
		if s.Importance < 1 || s.Importance > 5 {
			t.Fatalf("importance %d", s.Importance)
		}
	}
}

func TestZipfPopularitySkew(t *testing.T) {
	c := testCluster(t, 4)
	mix := DefaultMix()
	mix.Objects = 20
	mix.ZipfS = 1.0
	d := NewDriver(c, cluster.StandardCatalog(), mix, rng.New(2))
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[d.Spec().ObjectName]++
	}
	if counts["obj-0"] < 3*counts["obj-19"] {
		t.Fatalf("no popularity skew: head=%d tail=%d", counts["obj-0"], counts["obj-19"])
	}
}

func TestChurnKillsNodes(t *testing.T) {
	c := testCluster(t, 16)
	protect := map[env.NodeID]bool{0: true}
	Churn(c, rng.New(7), c.Eng.Now(), c.Eng.Now()+30*sim.Second, 0.3, 0.5, protect)
	c.RunUntil(c.Eng.Now() + 60*sim.Second)
	if alive := c.Net.NumAlive(); alive >= 16 || alive == 0 {
		t.Fatalf("alive = %d, churn had no effect", alive)
	}
	if !c.Net.Alive(0) {
		t.Fatal("protected node died")
	}
}

func TestJoinsAddNodes(t *testing.T) {
	c := testCluster(t, 8)
	cfg := core.DefaultConfig()
	Joins(c, cluster.StandardCatalog(), rng.New(11), c.Eng.Now(), c.Eng.Now()+20*sim.Second, 0.5, cfg.Qualify, 0.5, 3)
	c.RunUntil(c.Eng.Now() + 60*sim.Second)
	if got := len(c.IDs()); got <= 8 {
		t.Fatalf("no joins happened: %d nodes", got)
	}
	// New nodes should eventually join domains.
	joined := c.JoinedCount()
	if joined <= 8 {
		t.Fatalf("joined = %d, newcomers never joined", joined)
	}
}
