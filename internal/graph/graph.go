// Package graph implements the paper's two graph structures and the task
// allocation algorithm of Figure 3.
//
// The resource graph G_r (§3.4) is a directed graph whose vertices are
// application states (media formats, for the transcoding application) and
// whose edges are service instances offered by specific peers, annotated
// with cost and communication latency. The service graph G_s (§3.3) is the
// per-task pipeline of concrete service instances chosen by an allocation.
//
// Allocation (§4.3) is a search over G_r from an initial state to the
// requested state; feasible paths are those whose estimated end-to-end
// latency meets the deadline and whose peers have spare capacity; among
// feasible paths the paper's algorithm picks the one maximizing Jain's
// fairness index of the resulting load distribution.
package graph

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// VertexID indexes a vertex within one ResourceGraph.
type VertexID int

// EdgeID indexes an edge within one ResourceGraph.
type EdgeID int

// Vertex is an application state (§3.4: "each vertex represents an
// application state").
type Vertex struct {
	ID    VertexID
	Key   string // stable state identifier, e.g. media.Format.Key()
	Label string // human-readable, e.g. "MPEG-4 640x480@64Kbps"
}

// Edge is a service instance offered by one peer (§3.4: "each edge
// represents a service, accompanied by its current load").
type Edge struct {
	ID            EdgeID
	Name          string // diagram name, e.g. "e1"
	From          VertexID
	To            VertexID
	Peer          int     // index of the offering peer in the domain's load vector
	Service       string  // service identifier, e.g. media.Transcoder.Key()
	Work          float64 // work units per second of media processed
	LatencyMicros int64   // one-way communication latency of this hop
}

// ResourceGraph is the domain Resource Manager's G_r.
type ResourceGraph struct {
	vertices []Vertex
	byKey    map[string]VertexID
	edges    []Edge
	out      [][]EdgeID // adjacency: out[v] lists edges leaving v
}

// NewResourceGraph returns an empty graph.
func NewResourceGraph() *ResourceGraph {
	return &ResourceGraph{byKey: make(map[string]VertexID)}
}

// AddVertex adds (or returns the existing) vertex for key.
func (g *ResourceGraph) AddVertex(key, label string) VertexID {
	if id, ok := g.byKey[key]; ok {
		return id
	}
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{ID: id, Key: key, Label: label})
	g.byKey[key] = id
	g.out = append(g.out, nil)
	return id
}

// Lookup returns the vertex for key, if present.
func (g *ResourceGraph) Lookup(key string) (VertexID, bool) {
	id, ok := g.byKey[key]
	return id, ok
}

// AddEdge adds a service edge and returns its ID. From/To must exist.
func (g *ResourceGraph) AddEdge(e Edge) EdgeID {
	if int(e.From) >= len(g.vertices) || int(e.To) >= len(g.vertices) || e.From < 0 || e.To < 0 {
		panic("graph: AddEdge with unknown endpoint")
	}
	if e.Work < 0 {
		panic("graph: negative edge work")
	}
	e.ID = EdgeID(len(g.edges))
	if e.Name == "" {
		e.Name = "e" + strconv.Itoa(int(e.ID)+1)
	}
	g.edges = append(g.edges, e)
	g.out[e.From] = append(g.out[e.From], e.ID)
	return e.ID
}

// RemoveEdgesForPeer deletes all service edges offered by peer (used when
// a peer disconnects, §4.1: "the resource graph is also updated, by
// removing the edges that were referring to the services offered by the
// particular peer"). Edge IDs of surviving edges are preserved; removed
// slots are tombstoned so outstanding IDs never alias a different edge.
// It returns the number of edges removed.
func (g *ResourceGraph) RemoveEdgesForPeer(peer int) int {
	removed := 0
	for i := range g.edges {
		if g.edges[i].Peer == peer && !g.edges[i].dead() {
			g.edges[i].Work = -1 // tombstone marker
			removed++
		}
	}
	if removed > 0 {
		for v := range g.out {
			kept := g.out[v][:0]
			for _, id := range g.out[v] {
				if !g.edges[id].dead() {
					kept = append(kept, id)
				}
			}
			g.out[v] = kept
		}
	}
	return removed
}

// dead reports whether the edge has been tombstoned.
func (e *Edge) dead() bool { return e.Work < 0 }

// NumVertices returns the vertex count.
func (g *ResourceGraph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the count of live edges.
func (g *ResourceGraph) NumEdges() int {
	n := 0
	for i := range g.edges {
		if !g.edges[i].dead() {
			n++
		}
	}
	return n
}

// Vertex returns vertex id.
func (g *ResourceGraph) Vertex(id VertexID) Vertex { return g.vertices[id] }

// SetLatency sets edge id's one-way communication latency: the measured
// estimate changes while the graph's topology stays.
func (g *ResourceGraph) SetLatency(id EdgeID, micros int64) { g.edges[id].LatencyMicros = micros }

// Edge returns edge id. Callers must not mutate shared state through it.
func (g *ResourceGraph) Edge(id EdgeID) Edge { return g.edges[id] }

// Out returns the live out-edges of v. The returned slice is owned by the
// graph; callers must not modify it.
func (g *ResourceGraph) Out(v VertexID) []EdgeID { return g.out[v] }

// EdgeByName finds an edge by its diagram name.
func (g *ResourceGraph) EdgeByName(name string) (Edge, bool) {
	for i := range g.edges {
		if g.edges[i].Name == name && !g.edges[i].dead() {
			return g.edges[i], true
		}
	}
	return Edge{}, false
}

// PathNames renders a path as "{e1,e4,e5,e8}" like the paper's prose.
func (g *ResourceGraph) PathNames(path []EdgeID) string {
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = g.edges[id].Name
	}
	return "{" + strings.Join(names, ",") + "}"
}

// String summarizes the graph.
func (g *ResourceGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G_r: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for _, v := range g.vertices {
		fmt.Fprintf(&b, "  v%d %s\n", int(v.ID)+1, v.Label)
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.dead() {
			continue
		}
		fmt.Fprintf(&b, "  %s: v%d->v%d peer=%d work=%.2f\n",
			e.Name, int(e.From)+1, int(e.To)+1, e.Peer, e.Work)
	}
	return b.String()
}

// ErrNoAllocation is returned when no feasible path satisfies the QoS
// requirements (§4.3: "If no allocation that satisfies the given QoS
// exists, the algorithm reports that").
var ErrNoAllocation = errors.New("graph: no allocation satisfies the QoS requirements")

// Request is the task allocation input: a task T plus its requirement set
// q in the paper's terms.
type Request struct {
	Init VertexID // v_init: the state of the source object
	Goal VertexID // v_sol: the requested output state
	// DeadlineMicros bounds the estimated end-to-end pipeline latency for
	// one chunk of the stream (startup latency).
	DeadlineMicros int64
	// ChunkSeconds is the media duration carried per pipeline chunk; the
	// per-hop processing time scales with it.
	ChunkSeconds float64
	// MaxHops bounds the search depth (0 = number of edges in the graph).
	MaxHops int
}

// PeerView is the Resource Manager's current view of its domain's peers:
// parallel slices indexed by peer.
type PeerView struct {
	Load  []float64 // current load l_i (work units/s in service; §3.1 item 3)
	Speed []float64 // processing power (work units/s capacity)
}

// Validate checks structural consistency.
func (pv *PeerView) Validate() error {
	if len(pv.Load) != len(pv.Speed) {
		return errors.New("graph: PeerView load/speed length mismatch")
	}
	for i, s := range pv.Speed {
		if s <= 0 {
			return fmt.Errorf("graph: peer %d has non-positive speed", i)
		}
	}
	return nil
}

// Clone deep-copies the view.
func (pv *PeerView) Clone() *PeerView {
	return &PeerView{
		Load:  append([]float64(nil), pv.Load...),
		Speed: append([]float64(nil), pv.Speed...),
	}
}

// Allocation is a chosen task execution sequence plus its predicted
// properties.
type Allocation struct {
	Path          []EdgeID
	Fairness      float64 // fairness index of the load distribution after assignment
	LatencyMicros int64   // estimated per-chunk pipeline latency
}

// pathMetrics computes (latency, loadDelta feasible) for a full or prefix
// path. The load delta of assigning a streaming task to edge e is e.Work
// work-units/s for the session lifetime. A prefix is infeasible when
// cumulative latency exceeds the deadline or any peer would exceed its
// capacity including the deltas accumulated along the path so far.
func pathMetrics(g *ResourceGraph, path []EdgeID, req *Request, pv *PeerView) (latency int64, ok bool) {
	// Accumulate per-peer deltas along the path: a path may reuse a peer.
	type pd struct {
		peer  int
		delta float64
	}
	var scratch [8]pd
	deltas := scratch[:0]
	for _, id := range path {
		e := &g.edges[id]
		// Spare capacity on this peer after the deltas already accumulated
		// from earlier hops of this same path.
		prior := 0.0
		for _, d := range deltas {
			if d.peer == e.Peer {
				prior += d.delta
			}
		}
		spare := pv.Speed[e.Peer] - pv.Load[e.Peer] - prior
		if spare <= 1e-9 || spare-e.Work < -1e-9 {
			return 0, false // no capacity for this service on this peer
		}
		exec := int64(e.Work * req.ChunkSeconds / spare * 1e6)
		latency += exec + e.LatencyMicros
		if req.DeadlineMicros > 0 && latency > req.DeadlineMicros {
			return 0, false
		}
		found := false
		for i := range deltas {
			if deltas[i].peer == e.Peer {
				deltas[i].delta += e.Work
				found = true
				break
			}
		}
		if !found {
			deltas = append(deltas, pd{e.Peer, e.Work})
		}
	}
	return latency, true
}

// PathPeers returns the parallel (peers, loadDeltas) arrays for a path,
// for fairness evaluation.
func (g *ResourceGraph) PathPeers(path []EdgeID) (peers []int, deltas []float64) {
	for _, id := range path {
		e := &g.edges[id]
		peers = append(peers, e.Peer)
		deltas = append(deltas, e.Work)
	}
	return peers, deltas
}
