// Package obs is the fleet observability plane: it scrapes the
// diagnostics endpoints of N nodes (/metrics.json, /sketches, /trace,
// /decisions), merges the mergeable parts — quantile sketches fold
// bucket-wise (stats.MergeExports), trace events sort into one
// deterministic stream (MergeTraces) in which equal span IDs stitch
// cross-node sessions into single causal tracks — and summarizes the
// fleet per domain for the p2ptop dashboard.
//
// The collector is transport-agnostic below Scrape: everything operates
// on NodeData values, so the same merge/summarize path serves scraped
// TCP clusters and p2psim file output.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// NodeData is everything the collector gathered from one node. Partial
// data is normal: a node without a tracer serves an empty /trace, and a
// scrape error leaves the fields nil with Err set.
type NodeData struct {
	Name      string
	Families  []metrics.FamilySnapshot
	Sketches  []stats.SketchJSON
	Decisions []core.Decision
	Trace     []trace.Event
	Err       error
}

// metricsDoc and sketchesDoc mirror the endpoint envelope shapes.
type metricsDoc struct {
	Families []metrics.FamilySnapshot `json:"families"`
}
type sketchesDoc struct {
	Sketches []stats.SketchJSON `json:"sketches"`
}
type decisionsDoc struct {
	Total     uint64          `json:"total"`
	Decisions []core.Decision `json:"decisions"`
}

// DefaultScrapeTimeout bounds one node scrape end to end.
const DefaultScrapeTimeout = 5 * time.Second

// Scrape collects one node's observability documents from its
// diagnostics base URL ("http://host:port"). Endpoints are fetched
// independently; the first failure is recorded in Err but the fields
// that did arrive are kept, so a fleet view degrades per node rather
// than per scrape.
func Scrape(client *http.Client, name, baseURL string) NodeData {
	if client == nil {
		client = &http.Client{Timeout: DefaultScrapeTimeout}
	}
	n := NodeData{Name: name}
	keep := func(err error) {
		if err != nil && n.Err == nil {
			n.Err = err
		}
	}
	var md metricsDoc
	keep(getJSON(client, baseURL+"/metrics.json", &md))
	n.Families = md.Families
	var sd sketchesDoc
	keep(getJSON(client, baseURL+"/sketches", &sd))
	n.Sketches = sd.Sketches
	var dd decisionsDoc
	keep(getJSON(client, baseURL+"/decisions", &dd))
	n.Decisions = dd.Decisions
	ev, err := getTrace(client, baseURL+"/trace")
	keep(err)
	n.Trace = ev
	return n
}

// getJSON fetches url and decodes its JSON body into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs: %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getTrace fetches a /trace endpoint and parses its JSONL body.
func getTrace(client *http.Client, url string) ([]trace.Event, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: %s: %s", url, resp.Status)
	}
	return trace.ReadJSONL(resp.Body)
}

// Fleet is the merged, fleet-wide view the dashboard renders.
type Fleet struct {
	Nodes []NodeData
	// Sketches holds the bucket-wise merge of every node's sketch
	// export, keyed by sketch name in name order; SketchesSkipped counts
	// exports dropped for alpha mismatch or corruption.
	Sketches        []stats.SketchJSON
	SketchesSkipped int
	// Trace is the deterministic merge of every node's span events;
	// Sessions summarizes its async spans, cross-node ones first.
	Trace    []trace.Event
	Sessions []SessionTrack
	// Decisions is every node's RM audit ring concatenated in scrape
	// order (rings are already oldest-first per node).
	Decisions []core.Decision
	// Domains is the per-domain rollup of the metric families.
	Domains []DomainSummary
	// Drops aggregates live_transport_dropped_total by reason.
	Drops map[string]uint64
}

// Collect merges per-node data into the fleet view. It is pure — the
// network is only touched by Scrape — so file-mode (p2psim output) and
// scrape-mode dashboards share it.
func Collect(nodes []NodeData) *Fleet {
	f := &Fleet{Nodes: nodes, Drops: make(map[string]uint64)}
	exports := make([][]stats.SketchJSON, 0, len(nodes))
	traces := make([][]trace.Event, 0, len(nodes))
	for _, n := range nodes {
		if len(n.Sketches) > 0 {
			exports = append(exports, n.Sketches)
		}
		if len(n.Trace) > 0 {
			traces = append(traces, n.Trace)
		}
		f.Decisions = append(f.Decisions, n.Decisions...)
	}
	f.Sketches, f.SketchesSkipped = stats.MergeExports(exports)
	f.Trace = MergeTraces(traces...)
	f.Sessions = SessionTracks(f.Trace)
	f.Domains = Summarize(nodes)
	for _, n := range nodes {
		for _, fam := range n.Families {
			if fam.Name != "live_transport_dropped_total" {
				continue
			}
			for _, m := range fam.Metrics {
				if m.Value > 0 {
					f.Drops[m.Labels["reason"]] += uint64(m.Value)
				}
			}
		}
	}
	return f
}

// Quantile queries a merged fleet sketch by name (0 when absent).
func (f *Fleet) Quantile(name string, q float64) float64 {
	for _, j := range f.Sketches {
		if j.Name == name {
			s, err := stats.Import(j)
			if err != nil {
				return 0
			}
			return s.Quantile(q)
		}
	}
	return 0
}

// CrossNode returns the session tracks observed on two or more nodes —
// the causally stitched cross-node sessions.
func (f *Fleet) CrossNode() []SessionTrack {
	var out []SessionTrack
	for _, s := range f.Sessions {
		if len(s.Nodes) >= 2 {
			out = append(out, s)
		}
	}
	return out
}
