package p2prm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	p2prm "repro"
)

var updateTelemetry = flag.Bool("update", false, "rewrite testdata/telemetry.golden from this build's outputs")

const telemetryGolden = "testdata/telemetry.golden"

// telemetryRun is one seeded churning simulation with every
// observability sink attached; it returns each output document by name.
func telemetryRun(t *testing.T, discovery string) map[string][]byte {
	t.Helper()
	cfg := p2prm.DefaultConfig()
	cfg.Discovery = discovery
	cfg.MaxDomainPeers = 8
	cfg.PreemptLowImportance = true
	tr := p2prm.NewTracer()
	reg := p2prm.NewMetricsRegistry()
	s := p2prm.NewSimulation(cfg, p2prm.SimOptions{Seed: 11, Tracer: tr, Metrics: reg})
	s.GrowStandard(40, 2, 8, 3, 0.5)
	warm := s.Now() + 5*p2prm.Second
	end := warm + 2*p2prm.Minute
	s.StandardWorkload(warm, end, 4, 8)
	s.StandardChurn(warm, end, 40)
	s.RunUntil(end + 30*p2prm.Second)

	ev := s.Events()
	// The run must reach every fact kind the gate is meant to pin; stale
	// redirect skips need aged summaries and are covered in internal/core.
	for name, n := range map[string]int{
		"Submitted": ev.Submitted, "Admitted": ev.Admitted, "Rejected": ev.Rejected,
		"Redirected": ev.Redirected, "Reports": len(ev.Reports), "Repairs": ev.Repairs,
		"Migrations": ev.Migrations, "Preemptions": ev.Preemptions, "Aborted": ev.Aborted,
		"Failovers": ev.Failovers, "DomainsCreated": ev.DomainsCreated,
		"PeersDeclaredDead": ev.PeersDeclaredDead, "AllocNanos": len(ev.AllocNanos),
	} {
		if n == 0 {
			t.Errorf("%s run: %s = 0, the golden no longer covers it", discovery, name)
		}
	}
	if discovery == "dht" && (ev.DHTLookups == 0 || ev.DHTLookupHits == 0) {
		t.Errorf("dht run: lookups = %d, hits = %d", ev.DHTLookups, ev.DHTLookupHits)
	}

	out := map[string][]byte{}
	var b bytes.Buffer
	write := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s run: writing %s: %v", discovery, name, err)
		}
		out[name] = append([]byte(nil), b.Bytes()...)
		b.Reset()
	}
	write("trace.jsonl", tr.WriteJSONL(&b))
	write("metrics.prom", reg.WritePrometheus(&b))
	write("decisions.json", s.Decisions().WriteJSON(&b))
	write("sketches.json", s.Sketches().WriteJSON(&b, int64(s.Now())))
	_, err := fmt.Fprintf(&b, "%+v\n", ev)
	write("events.txt", err)
	return out
}

// TestTelemetryGolden pins every telemetry output of two seeded churning
// runs — gossip and DHT discovery — to the SHA-256 digests committed in
// testdata/telemetry.golden: the trace JSONL, the Prometheus exposition,
// the decision audit, the sketches and the run's EventsData. A change to
// how facts reach the sinks must leave all of them byte-identical; after
// an intended change, rerun with -update. On a mismatch the actual
// documents are written to a temporary directory named in the failure.
func TestTelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two 40-peer churn runs")
	}
	got := map[string]string{}
	docs := map[string][]byte{}
	for _, disc := range []string{"gossip", "dht"} {
		for name, doc := range telemetryRun(t, disc) {
			key := disc + "/" + name
			sum := sha256.Sum256(doc)
			got[key] = hex.EncodeToString(sum[:])
			docs[key] = doc
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateTelemetry {
		var b strings.Builder
		b.WriteString("# SHA-256 of the telemetry outputs of TestTelemetryGolden; regenerate with -update.\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(telemetryGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(telemetryGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := readDigests(telemetryGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var bad []string
	for _, k := range keys {
		if want[k] != got[k] {
			bad = append(bad, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			bad = append(bad, k+" (missing)")
		}
	}
	if len(bad) == 0 {
		return
	}
	dir, err := os.MkdirTemp("", "telemetry-golden-")
	if err != nil {
		t.Fatalf("outputs differ from %s: %v (and no temp dir: %v)", telemetryGolden, bad, err)
	}
	for k, doc := range docs {
		path := filepath.Join(dir, strings.ReplaceAll(k, "/", "-"))
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Errorf("writing %s: %v", path, err)
		}
	}
	t.Fatalf("outputs differ from %s: %v; actual documents in %s", telemetryGolden, bad, dir)
}

// readDigests parses the "name digest" lines of a golden file, skipping
// # comments.
func readDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		out[name] = sum
	}
	return out, nil
}
