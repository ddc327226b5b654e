// Command p2pnode runs one live middleware peer over TCP — the
// deployable daemon form of the system. Several p2pnode processes with a
// shared address book form a real overlay; the first one (-founder)
// becomes the Resource Manager of domain 0.
//
// Example (three shells):
//
//	p2pnode -id 0 -listen :7000 -book "1=localhost:7001,2=localhost:7002" \
//	        -founder -object "movie:30" -speed 10
//	p2pnode -id 1 -listen :7001 -book "0=localhost:7000,2=localhost:7002" \
//	        -bootstrap 0 -speed 10
//	p2pnode -id 2 -listen :7002 -book "0=localhost:7000,1=localhost:7001" \
//	        -bootstrap 0 -speed 10 -submit movie -after 3s
//
// The -submit node issues a transcoding query once joined and prints the
// session report.
//
// Scenario mode replaces daemon mode and drives a whole fleet from one
// declarative file (the same format p2psim -scenario runs on the
// virtual clock):
//
//	p2pnode -scenario f.yaml [-scenario-pace 2] [-scenario-report out.json]
//	p2pnode -scenario f.yaml -scenario-part 0/2 -scenario-peers ":7461,:7462"
//	p2pnode -scenario f.yaml -scenario-part 1/2 -scenario-peers ":7461,:7462"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		id          = flag.Int("id", 0, "this node's global ID")
		listen      = flag.String("listen", ":7000", "TCP listen address")
		book        = flag.String("book", "", "address book: 'id=host:port,id=host:port,...'")
		founder     = flag.Bool("founder", false, "found domain 0 (first node of the overlay)")
		bootstrap   = flag.Int("bootstrap", -1, "node ID to join through (ignored with -founder)")
		speed       = flag.Float64("speed", 10, "processing power (work units/s)")
		bandwidth   = flag.Float64("bw", 5000, "access bandwidth (Kbps)")
		uptime      = flag.Float64("uptime", 7200, "historical uptime (s), used for RM qualification")
		object      = flag.String("object", "", "host an object: 'name:durationSeconds'")
		submit      = flag.String("submit", "", "submit a query for this object name once joined")
		after       = flag.Duration("after", 3*time.Second, "delay before -submit")
		linger      = flag.Duration("linger", 0, "keep running this long after the -submit report, so -http stays scrapable (e.g. by p2ptop)")
		disc        = flag.String("discovery", "", "discovery backend: gossip or dht (default: gossip; with -scenario, the file's choice)")
		verbose     = flag.Bool("v", false, "log node diagnostics (structured key=value lines)")
		httpAddr    = flag.String("http", "", "HTTP diagnostics address, e.g. :9090 (/metrics, /sketches, /decisions, /trace, /healthz, /debug/pprof)")
		record      = flag.String("record", "", "flight-recorder directory: log all nondeterministic inputs for 'p2psim -replay'")
		seed        = flag.Uint64("seed", 0, "run seed; give every node of the overlay the same value so span IDs agree across processes and p2ptop stitches their traces (0 derives a per-node seed from -id)")
		scenFile    = flag.String("scenario", "", "run a declarative scenario file on the live runtime instead of daemon mode (same file format as p2psim -scenario)")
		scenPart    = flag.String("scenario-part", "", "with -scenario: host the fleet slice 'k/n' (node indexes with index%n == k); requires -scenario-peers for n > 1")
		scenPeers   = flag.String("scenario-peers", "", "with -scenario-part k/n: comma-separated TCP listen addresses of all n parts, index-aligned")
		scenPace    = flag.Float64("scenario-pace", 1, "with -scenario: divide scripted times (2 = run the timeline twice as fast)")
		scenOut     = flag.String("scenario-report", "", "with -scenario: write the machine-readable assertion report (JSON) here")
		flushBudget = flag.Duration("flush-budget", time.Millisecond,
			"max time one coalesced transport write may keep draining a busy send queue (negative disables coalescing)")
	)
	var faults faultFlag
	flag.Var(&faults, "fault",
		"fault-injection rule 'FROM->TO:drop=0.2,dup=0.1,delay=50ms,sever' ('*' = any node); repeatable")
	flag.Parse()

	if *scenFile != "" {
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		os.Exit(runScenario(*scenFile, *scenPart, *scenPeers, *scenPace, *seed, seedSet, *scenOut, *disc))
	}

	cfg := p2prm.DefaultConfig()
	if *disc != "" {
		if *disc != "gossip" && *disc != "dht" {
			log.Fatalf("-discovery must be gossip or dht, got %q", *disc)
		}
		cfg.Discovery = *disc
	}
	info := p2prm.PeerInfo{
		SpeedWU:       *speed,
		BandwidthKbps: *bandwidth,
		UptimeSec:     *uptime,
		Services:      standardLadder(),
	}
	if *object != "" {
		name, dur := parseObject(*object)
		src := p2prm.Format{Codec: p2prm.MPEG2, Width: 800, Height: 600, BitrateKbps: 512}
		info.Objects = append(info.Objects, p2prm.Object{
			Name:   name,
			Format: src,
			Bytes:  int64(dur * float64(src.BitrateKbps) * 1000 / 8),
		})
	}

	runSeed := *seed
	if runSeed == 0 {
		runSeed = uint64(*id) + 1
	}
	// Always trace: the /trace endpoint is what the fleet collector
	// stitches, and the buffer is bounded (trace.DefaultMaxEvents).
	opts := p2prm.LiveOptions{Seed: runSeed, Listen: *listen, RecordDir: *record,
		Tracer: p2prm.NewTracer()}
	opts.Transport.FlushBudget = *flushBudget
	if *verbose {
		opts.LogTo = os.Stderr
	}
	l, err := p2prm.NewLive(cfg, opts)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	// All exits funnel through shutdown so the flight recorder, trace and
	// metrics sinks are flushed exactly once — a SIGINT mid-run must not
	// leave a truncated final frame in the event log.
	var closeOnce sync.Once
	shutdown := func() { closeOnce.Do(l.Close) }
	defer shutdown()
	fail := func(format string, args ...any) {
		log.Printf(format, args...)
		shutdown()
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("node %d shutting down (%v)", *id, s)
		shutdown()
		os.Exit(0)
	}()

	log.Printf("node %d listening on %s", *id, l.ListenAddr())
	if *record != "" {
		log.Printf("node %d recording to %s", *id, *record)
	}
	if *httpAddr != "" {
		addr, err := l.ServeDiagnostics(*httpAddr)
		if err != nil {
			fail("http: %v", err)
		}
		log.Printf("node %d diagnostics on http://%s/metrics", *id, addr)
	}

	for _, entry := range strings.Split(*book, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kv := strings.SplitN(entry, "=", 2)
		if len(kv) != 2 {
			fail("bad -book entry %q", entry)
		}
		rid, err := strconv.Atoi(kv[0])
		if err != nil {
			fail("bad -book id %q", kv[0])
		}
		l.Register(p2prm.NodeID(rid), kv[1])
	}

	for _, f := range faults {
		l.Fault(f.from, f.to, f.rule)
		log.Printf("node %d fault rule installed: %s", *id, f)
	}

	self := p2prm.NodeID(*id)
	if *founder {
		l.StartPeerWithID(self, info, p2prm.NoNode)
		log.Printf("node %d founded domain 0 as Resource Manager", *id)
	} else {
		if *bootstrap < 0 {
			fail("need -bootstrap or -founder")
		}
		l.StartPeerWithID(self, info, p2prm.NodeID(*bootstrap))
	}

	// Wait for membership.
	for !l.Joined(self) {
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("node %d joined the overlay (RM role: %v)", *id, l.IsRM(self))

	if *submit != "" {
		time.Sleep(*after)
		taskID := l.Submit(self, p2prm.TaskSpec{
			ObjectName: *submit,
			Constraint: p2prm.Constraint{
				Codecs:         []p2prm.Codec{p2prm.MPEG4},
				MaxWidth:       640,
				MaxHeight:      480,
				MaxBitrateKbps: 64,
			},
			DeadlineMicros: 2_000_000,
			DurationSec:    10,
			ChunkSec:       1,
		})
		log.Printf("submitted task %s for object %q", taskID, *submit)
		for {
			time.Sleep(250 * time.Millisecond)
			ev := l.Events()
			if len(ev.Reports) > 0 {
				r := ev.Reports[0]
				fmt.Printf("session %s: %d/%d chunks, %d missed, startup %.1fms, mean latency %.1fms\n",
					r.TaskID, r.Received, r.Chunks, r.Missed,
					float64(r.StartupMicros)/1000, r.MeanLatencyMicros/1000)
				time.Sleep(*linger)
				return
			}
			if ev.Rejected > 0 {
				fmt.Println("task rejected: no allocation satisfies the QoS requirements")
				time.Sleep(*linger)
				return
			}
		}
	}

	// Daemon mode: run until the signal handler exits the process.
	select {}
}

// faultSpec is one parsed -fault rule.
type faultSpec struct {
	from, to p2prm.NodeID
	rule     p2prm.FaultRule
}

// String renders the spec back in flag syntax (for logs).
func (f faultSpec) String() string {
	node := func(id p2prm.NodeID) string {
		if id == p2prm.NoNode {
			return "*"
		}
		return strconv.Itoa(int(id))
	}
	parts := []string{}
	if f.rule.Sever {
		parts = append(parts, "sever")
	}
	if f.rule.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", f.rule.Drop))
	}
	if f.rule.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", f.rule.Dup))
	}
	if f.rule.Delay > 0 {
		parts = append(parts, "delay="+f.rule.Delay.String())
	}
	return node(f.from) + "->" + node(f.to) + ":" + strings.Join(parts, ",")
}

// faultFlag collects repeated -fault values.
type faultFlag []faultSpec

func (f *faultFlag) String() string {
	specs := make([]string, len(*f))
	for i, s := range *f {
		specs[i] = s.String()
	}
	return strings.Join(specs, " ")
}

func (f *faultFlag) Set(v string) error {
	spec, err := parseFaultSpec(v)
	if err != nil {
		return err
	}
	*f = append(*f, spec)
	return nil
}

// parseFaultSpec parses 'FROM->TO:drop=0.2,dup=0.1,delay=50ms,sever'
// where FROM/TO are node IDs or '*' for any node.
func parseFaultSpec(s string) (faultSpec, error) {
	var spec faultSpec
	pair, opts, ok := strings.Cut(s, ":")
	if !ok {
		return spec, fmt.Errorf("fault %q: want 'FROM->TO:opts'", s)
	}
	from, to, ok := strings.Cut(pair, "->")
	if !ok {
		return spec, fmt.Errorf("fault %q: want 'FROM->TO' before ':'", s)
	}
	node := func(v string) (p2prm.NodeID, error) {
		v = strings.TrimSpace(v)
		if v == "*" || v == "" {
			return p2prm.NoNode, nil
		}
		id, err := strconv.Atoi(v)
		if err != nil || id < 0 {
			return p2prm.NoNode, fmt.Errorf("fault %q: bad node %q", s, v)
		}
		return p2prm.NodeID(id), nil
	}
	var err error
	if spec.from, err = node(from); err != nil {
		return spec, err
	}
	if spec.to, err = node(to); err != nil {
		return spec, err
	}
	for _, opt := range strings.Split(opts, ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		key, val, _ := strings.Cut(opt, "=")
		switch key {
		case "sever":
			spec.rule.Sever = true
		case "drop", "dup":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return spec, fmt.Errorf("fault %q: %s wants a probability in [0,1], got %q", s, key, val)
			}
			if key == "drop" {
				spec.rule.Drop = p
			} else {
				spec.rule.Dup = p
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return spec, fmt.Errorf("fault %q: delay wants a duration, got %q", s, val)
			}
			spec.rule.Delay = d
		default:
			return spec, fmt.Errorf("fault %q: unknown option %q (want drop, dup, delay, sever)", s, key)
		}
	}
	if spec.rule == (p2prm.FaultRule{}) {
		return spec, fmt.Errorf("fault %q: no effect; set drop, dup, delay, or sever", s)
	}
	return spec, nil
}

// standardLadder returns the default transcoder set every node offers.
func standardLadder() []p2prm.Transcoder {
	src := p2prm.Format{Codec: p2prm.MPEG2, Width: 800, Height: 600, BitrateKbps: 512}
	mid := p2prm.Format{Codec: p2prm.MPEG2, Width: 640, Height: 480, BitrateKbps: 256}
	tgt1 := p2prm.Format{Codec: p2prm.MPEG4, Width: 640, Height: 480, BitrateKbps: 64}
	tgt2 := p2prm.Format{Codec: p2prm.H263, Width: 320, Height: 240, BitrateKbps: 32}
	return []p2prm.Transcoder{
		{From: src, To: mid},
		{From: mid, To: tgt1},
		{From: mid, To: tgt2},
		{From: src, To: tgt1},
	}
}

func parseObject(s string) (string, float64) {
	parts := strings.SplitN(s, ":", 2)
	name := parts[0]
	dur := 30.0
	if len(parts) == 2 {
		if v, err := strconv.ParseFloat(parts[1], 64); err == nil {
			dur = v
		}
	}
	return name, dur
}
