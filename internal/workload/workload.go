// Package workload generates the synthetic request and churn processes
// driving the experiments: Poisson task arrivals with Zipf object
// popularity, heterogeneous peer populations (via cluster.PeerSpecs), and
// scripted churn/spike scenarios.
package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TaskMix parameterizes the request stream.
type TaskMix struct {
	// RatePerSec is the Poisson arrival rate of task queries.
	RatePerSec float64
	// Objects is the catalog size; requests draw object ranks from a
	// Zipf distribution with exponent ZipfS.
	Objects int
	ZipfS   float64
	// DurationMeanSec is the mean (exponential) session length.
	DurationMeanSec float64
	// DeadlineMicros is the startup budget attached to every request.
	DeadlineMicros int64
	// ChunkSec is the chunk granularity.
	ChunkSec float64
	// ImportanceLevels draws Importance uniformly from [1, n].
	ImportanceLevels int
	// RelaxedFrac of requests accept any codec (wider goal sets).
	RelaxedFrac float64
}

// DefaultMix returns the standard experiment request mix.
func DefaultMix() TaskMix {
	return TaskMix{
		RatePerSec:       1.0,
		Objects:          20,
		ZipfS:            0.8,
		DurationMeanSec:  20,
		DeadlineMicros:   2_000_000,
		ChunkSec:         1,
		ImportanceLevels: 5,
		RelaxedFrac:      0.3,
	}
}

// Driver schedules a request stream onto a cluster.
type Driver struct {
	C   *cluster.Cluster
	Cat cluster.Catalog
	Mix TaskMix
	R   *rng.Rand

	zipf *rng.Zipf
	seq  int
}

// NewDriver builds a driver with its own random stream.
func NewDriver(c *cluster.Cluster, cat cluster.Catalog, mix TaskMix, r *rng.Rand) *Driver {
	return &Driver{C: c, Cat: cat, Mix: mix, R: r, zipf: rng.NewZipf(r.Split(), mix.Objects, mix.ZipfS)}
}

// Spec draws one task specification (without origin).
func (d *Driver) Spec() proto.TaskSpec {
	d.seq++
	return DrawSpec(fmt.Sprintf("wl-%d", d.seq), d.Mix, d.Cat, d.R, d.zipf)
}

// DrawSpec draws task id's specification (without origin) from r and
// zipf in the one order every request stream shares: the object by Zipf
// rank, whether the request is relaxed, its constraint, its importance
// and its duration. Deadline, duration mean and chunk size are the mix's.
func DrawSpec(id string, mix TaskMix, cat cluster.Catalog, r *rng.Rand, zipf *rng.Zipf) proto.TaskSpec {
	obj := zipf.Next()
	relaxed := r.Bool(mix.RelaxedFrac)
	return proto.TaskSpec{
		ID:             id,
		ObjectName:     fmt.Sprintf("obj-%d", obj),
		Constraint:     cat.RequestConstraint(r, relaxed),
		DeadlineMicros: mix.DeadlineMicros,
		Importance:     1 + r.Intn(maxInt(1, mix.ImportanceLevels)),
		DurationSec:    r.Exp(mix.DurationMeanSec),
		ChunkSec:       mix.ChunkSec,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Run schedules Poisson arrivals over [start, end): each request is
// submitted from a uniformly random live peer.
func (d *Driver) Run(start, end sim.Time) {
	ids := d.C.IDs()
	t := start
	for {
		t += sim.Time(d.R.Exp(1/d.Mix.RatePerSec) * 1e6)
		if t >= end {
			return
		}
		origin := ids[d.R.Intn(len(ids))]
		spec := d.Spec()
		spec.Origin = origin
		d.C.Submit(t, origin, spec)
	}
}

// Churn schedules crash and (re)join events: over [start, end), each
// event at rate eventsPerSec either crashes a random live non-founder
// node (probability crashFrac) or gracefully stops one.
//
// Nodes are not resurrected — netsim node IDs are single-use — so churn
// experiments provision enough peers up front.
func Churn(c *cluster.Cluster, r *rng.Rand, start, end sim.Time, eventsPerSec, crashFrac float64, protect map[env.NodeID]bool) {
	t := start
	for {
		t += sim.Time(r.Exp(1/eventsPerSec) * 1e6)
		if t >= end {
			return
		}
		crash := r.Bool(crashFrac)
		at := t
		c.Eng.At(at, func() {
			// Pick a live, unprotected victim at fire time.
			var victims []env.NodeID
			for _, id := range c.IDs() {
				if c.Net.Alive(id) && !protect[id] {
					victims = append(victims, id)
				}
			}
			if len(victims) == 0 {
				return
			}
			v := victims[r.Intn(len(victims))]
			if crash {
				c.Net.Crash(v)
			} else {
				c.Net.Stop(v)
			}
		})
	}
}

// Joins schedules newcomer arrivals over [start, end) at joinsPerSec,
// bootstrapping each through a random existing node.
func Joins(c *cluster.Cluster, cat cluster.Catalog, r *rng.Rand, start, end sim.Time, joinsPerSec float64, q proto.QualifyThresholds, qualifiedFrac float64, svcPerPeer int) {
	t := start
	for {
		t += sim.Time(r.Exp(1/joinsPerSec) * 1e6)
		if t >= end {
			return
		}
		info := cluster.PeerSpecs(r, 1, q, qualifiedFrac)[0]
		perm := r.Perm(len(cat.Ladder))
		k := svcPerPeer
		if k > len(perm) {
			k = len(perm)
		}
		for _, j := range perm[:k] {
			info.Services = append(info.Services, cat.Ladder[j])
		}
		at := t
		c.Eng.At(at, func() {
			ids := c.IDs()
			var boot env.NodeID = env.NoNode
			// Bootstrap via any live node.
			for _, cand := range r.Perm(len(ids)) {
				if c.Net.Alive(ids[cand]) {
					boot = ids[cand]
					break
				}
			}
			if boot == env.NoNode {
				return
			}
			c.AddPeer(info, boot)
		})
	}
}

// BackgroundNoise drives square-wave extraneous load (§4.5) across the
// population: every period, each live peer independently becomes busy
// (consuming a random 40-80% of its capacity) with probability pBusy, or
// returns to idle. The Resource Manager only sees this load through
// profiler updates, so it is the staleness stimulus for E10.
func BackgroundNoise(c *cluster.Cluster, r *rng.Rand, start, end, period sim.Time, pBusy float64) {
	for t := start; t < end; t += period {
		at := t
		c.Eng.At(at, func() {
			for _, id := range c.IDs() {
				if !c.Net.Alive(id) {
					continue
				}
				p := c.Peer(id)
				if r.Bool(pBusy) {
					p.SetBackgroundLoad(p.Info().SpeedWU * r.Uniform(0.4, 0.8))
				} else {
					p.SetBackgroundLoad(0)
				}
			}
		})
	}
}

// LoadSpike sets high extraneous load on the given peers for the window
// [from, to): the E9 overload stimulus.
func LoadSpike(c *cluster.Cluster, peers []env.NodeID, from, to sim.Time, frac float64) {
	c.Eng.At(from, func() {
		for _, id := range peers {
			if c.Net.Alive(id) {
				p := c.Peer(id)
				p.SetBackgroundLoad(p.Info().SpeedWU * frac)
			}
		}
	})
	c.Eng.At(to, func() {
		for _, id := range peers {
			if c.Net.Alive(id) {
				c.Peer(id).SetBackgroundLoad(0)
			}
		}
	})
}
