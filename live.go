package p2prm

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Live hosts real-time peers in this process: each peer is a goroutine
// with a serialized mailbox running exactly the same protocol logic as
// the simulation. Attach a TCP transport (via LiveOptions.Listen and
// Register) to span processes.
type Live struct {
	rt     *live.Runtime
	tr     *live.TCPTransport
	addr   string
	events *core.Events
	reg    *metrics.Registry
	diag   *live.DiagnosticsServer
	cfg    Config
	peers  map[NodeID]*core.Peer
	tracer *trace.Tracer
	seed   uint64
	sk     *stats.Set
	dec    *core.DecisionLog

	// Scrape-time tracer gauges, refreshed by syncTraceMetrics.
	trBegun   *metrics.Gauge
	trOpen    *metrics.Gauge
	trDropped *metrics.Gauge

	// Flight-recorder state (see Record/StopRecord). recMu guards the
	// fields below; the recorder itself is concurrency-safe and is handed
	// to the runtime via SetRecorder.
	closeOnce  sync.Once
	recMu      sync.Mutex
	rec        *replay.Recorder
	recStop    chan struct{}
	recGauge   *metrics.Gauge
	recEvents  *metrics.Counter
	recBytes   *metrics.Counter
	recDropped *metrics.Counter
	lastEv     uint64
	lastBytes  uint64
	lastDrop   uint64
}

// TransportConfig tunes the live TCP transport's supervision: dial and
// write deadlines, per-peer queue depth, reconnect backoff, circuit
// breaking, and the frame-size limit. The zero value uses production
// defaults.
type TransportConfig = live.TransportConfig

// FaultRule describes live fault injection for one directed peer pair:
// drop/duplicate probabilities, added delay, or a full sever.
type FaultRule = live.FaultRule

// LiveOptions configures a live runtime.
type LiveOptions struct {
	// Seed initializes per-node randomness (live runs are not
	// deterministic; the seed only decorrelates nodes).
	Seed uint64
	// Listen, when non-empty, starts a TCP listener for inter-process
	// messages ("host:port" or ":0").
	Listen string
	// Transport tunes the supervised TCP transport; the zero value uses
	// production defaults. Only meaningful together with Listen.
	Transport TransportConfig
	// LogTo receives node diagnostics as structured key=value lines;
	// nil silences them.
	LogTo io.Writer
	// Tracer, when non-nil, records end-to-end session spans (see
	// NewTracer). Must be set at creation; attaching later races with
	// running nodes.
	Tracer *trace.Tracer
	// RecordDir, when non-empty, attaches a flight recorder from boot:
	// every nondeterministic input (message deliveries, timer firings,
	// node starts/stops, fault decisions, rng seeds) is logged to
	// RecordDir/events.bin, and StopRecord (or Close) writes the session
	// trace alongside it, so `p2psim -replay RecordDir` can re-execute
	// the run deterministically and compare. Recording from boot also
	// keeps allocator costing on the virtual clock (Config.Nanotime stays
	// nil) so the replayed trace is byte-comparable.
	RecordDir string
}

// NewLive creates a live runtime.
func NewLive(cfg Config, opts LiveOptions) (*Live, error) {
	if cfg.Nanotime == nil && opts.RecordDir == "" {
		// Cost allocations on real CPU time. When recording, the hook
		// stays nil so allocator costing derives from the virtual clock —
		// a replay has no access to the original run's CPU timings.
		cfg.Nanotime = live.Nanotime
	}
	if opts.RecordDir != "" && opts.Tracer == nil {
		// A boot recording always carries a trace: it is the artifact the
		// replayer compares against.
		opts.Tracer = trace.New()
	}
	rt := live.NewRuntime(opts.Seed)
	if opts.LogTo != nil {
		rt.Logger = live.NewLogger(opts.LogTo)
	}
	events := &core.Events{}
	reg := metrics.NewRegistry()
	events.AttachMetrics(reg)
	if opts.Tracer != nil {
		events.AttachTracer(opts.Tracer)
		// Span IDs derive from (seed, task) so every process sharing a
		// seed agrees on them without coordination (trace.DeriveSpanID).
		opts.Tracer.SetSeed(opts.Seed)
	}
	sk := stats.NewSet(0, 0, 0)
	events.AttachSketches(sk)
	dec := core.NewDecisionLog(0)
	events.AttachDecisions(dec)
	l := &Live{
		rt:     rt,
		events: events,
		reg:    reg,
		cfg:    cfg,
		peers:  make(map[NodeID]*core.Peer),
		tracer: opts.Tracer,
		seed:   opts.Seed,
		sk:     sk,
		dec:    dec,
	}
	l.recGauge = reg.Gauge("live_replay_recording",
		"1 while a flight recorder is attached to the runtime", nil)
	l.recEvents = reg.Counter("live_replay_recorded_total",
		"flight-recorder events written to the log", nil)
	l.recBytes = reg.Counter("live_replay_bytes_total",
		"flight-recorder bytes written to the log", nil)
	l.recDropped = reg.Counter("live_replay_dropped_total",
		"flight-recorder events that arrived after the recorder closed", nil)
	l.trBegun = reg.Gauge("trace_sessions_begun",
		"session spans begun on this node's tracer", nil)
	l.trOpen = reg.Gauge("trace_sessions_open",
		"session spans currently open on this node's tracer", nil)
	l.trDropped = reg.Gauge("trace_events_dropped",
		"trace events discarded after the tracer's buffer cap", nil)
	if opts.Listen != "" {
		l.tr = live.NewTCPTransportOpts(rt, opts.Transport, reg, opts.Tracer)
		l.tr.AttachSketches(sk)
		addr, err := l.tr.Listen(opts.Listen)
		if err != nil {
			return nil, err
		}
		l.addr = addr
	}
	if opts.RecordDir != "" {
		if err := l.Record(opts.RecordDir); err != nil {
			l.Close()
			return nil, err
		}
	}
	rt.SetRecordControl(l)
	return l, nil
}

// ListenAddr returns the bound TCP address ("" without a transport).
func (l *Live) ListenAddr() string { return l.addr }

// Register maps a remote node ID to its TCP address. Only valid when the
// runtime was created with Listen.
func (l *Live) Register(id NodeID, addr string) {
	if l.tr != nil {
		l.tr.Register(id, addr)
	}
}

// StartFounder hosts a peer that founds domain 0, returning its ID.
func (l *Live) StartFounder(info PeerInfo) NodeID {
	p := core.New(l.cfg, info, NoNode, l.events)
	id := l.rt.AddNode(p)
	l.peers[id] = p
	return id
}

// StartPeer hosts a peer that joins through bootstrap.
func (l *Live) StartPeer(info PeerInfo, bootstrap NodeID) NodeID {
	p := core.New(l.cfg, info, bootstrap, l.events)
	id := l.rt.AddNode(p)
	l.peers[id] = p
	return id
}

// StartPeerWithID hosts a peer under a fixed global ID (multi-process
// deployments assign IDs in their address book).
func (l *Live) StartPeerWithID(id NodeID, info PeerInfo, bootstrap NodeID) {
	p := core.New(l.cfg, info, bootstrap, l.events)
	l.rt.AddNodeWithID(id, p)
	l.peers[id] = p
}

// Submit issues a task query from the given hosted peer and returns the
// task ID ("" if the peer is unknown). The submission goes through
// CallNamed so a flight recorder logs it as a named external operation
// (the argument is the spec in a codec-encoded TaskSubmit envelope) and
// a replay can re-issue it.
func (l *Live) Submit(origin NodeID, spec TaskSpec) string {
	p, ok := l.peers[origin]
	if !ok {
		return ""
	}
	arg, _ := proto.AppendMessage(nil, proto.TaskSubmit{Spec: spec})
	var taskID string
	l.rt.CallNamed(origin, "submit", arg, func() { taskID = p.SubmitTask(spec) })
	return taskID
}

// Record attaches a flight recorder writing to dir (creating it). All
// nondeterministic inputs from this point on are logged; nodes started
// before recording began replay as unknown, so for a fully replayable
// log start recording at boot via LiveOptions.RecordDir. Returns an
// error if already recording or the directory cannot be created.
func (l *Live) Record(dir string) error {
	l.recMu.Lock()
	defer l.recMu.Unlock()
	if l.rec != nil {
		return fmt.Errorf("already recording to %s", l.rec.Dir())
	}
	rec, err := replay.NewRecorder(dir)
	if err != nil {
		return err
	}
	if l.tracer != nil {
		rec.SetTraceSeed(l.seed)
	}
	l.rec = rec
	l.lastEv, l.lastBytes, l.lastDrop = 0, 0, 0
	l.recStop = make(chan struct{})
	l.rt.SetRecorder(rec, nil)
	l.recGauge.Set(1)
	go l.recordMetricsLoop(l.recStop)
	return nil
}

// StopRecord detaches the recorder, flushes and closes the event log,
// and writes the session trace next to it (RecordDir/trace.jsonl) for
// the replayer to compare against. No-op when not recording.
func (l *Live) StopRecord() error {
	l.recMu.Lock()
	defer l.recMu.Unlock()
	if l.rec == nil {
		return nil
	}
	// The trace is taken at the cut, so it holds exactly the events of
	// the handlers the log holds, even when recording stops mid-run.
	var cut []trace.Event
	l.rt.SetRecorder(nil, func() { cut = l.tracer.Snapshot() })
	close(l.recStop)
	dir := l.rec.Dir()
	err := l.rec.Close()
	l.syncRecordMetricsLocked(l.rec)
	l.rec = nil
	l.recGauge.Set(0)
	if l.tracer != nil {
		if terr := trace.WriteEventsFile(filepath.Join(dir, replay.TraceFile), cut); terr != nil && err == nil {
			err = terr
		}
	}
	return err
}

// RecordStatus reports the recorder state; with Record/StopRecord and
// the /record diagnostics endpoint it implements live.RecordControl.
func (l *Live) RecordStatus() live.RecordStatus {
	l.recMu.Lock()
	defer l.recMu.Unlock()
	st := live.RecordStatus{}
	if l.rec != nil {
		st.Recording = true
		st.Dir = l.rec.Dir()
		st.Events, st.Bytes, st.Dropped = l.rec.Counters()
		l.syncRecordMetricsLocked(l.rec)
	}
	return st
}

// syncRecordMetricsLocked folds the recorder's cumulative counters into
// the live_replay_* metrics as deltas. Callers hold recMu.
func (l *Live) syncRecordMetricsLocked(rec *replay.Recorder) {
	ev, by, dr := rec.Counters()
	l.recEvents.Add(int(ev - l.lastEv))
	l.recBytes.Add(int(by - l.lastBytes))
	l.recDropped.Add(int(dr - l.lastDrop))
	l.lastEv, l.lastBytes, l.lastDrop = ev, by, dr
}

// recordMetricsLoop keeps the live_replay_* metrics fresh between
// scrapes while a recording is active.
func (l *Live) recordMetricsLoop(stop chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			l.recMu.Lock()
			if l.rec != nil {
				l.syncRecordMetricsLocked(l.rec)
			}
			l.recMu.Unlock()
		}
	}
}

// Joined reports whether a hosted peer is a domain member.
func (l *Live) Joined(id NodeID) bool {
	p, ok := l.peers[id]
	if !ok {
		return false
	}
	var joined bool
	l.rt.Call(id, func() { joined = p.Joined() })
	return joined
}

// IsRM reports whether a hosted peer holds the Resource-Manager role.
func (l *Live) IsRM(id NodeID) bool {
	p, ok := l.peers[id]
	if !ok {
		return false
	}
	var is bool
	l.rt.Call(id, func() { is = p.IsRM() })
	return is
}

// Fault installs (or, with a zero rule, removes) a fault-injection rule
// for the directed pair from -> to. NoNode acts as a wildcard on either
// side. Rules impair both in-process deliveries and the TCP transport's
// outbound traffic.
func (l *Live) Fault(from, to NodeID, rule FaultRule) {
	l.rt.EnsureFaultInjector().Set(from, to, rule)
}

// Sever cuts both directions between two nodes, as if their link died.
func (l *Live) Sever(a, b NodeID) { l.rt.EnsureFaultInjector().Sever(a, b) }

// Heal removes the fault rules between a pair in both directions.
func (l *Live) Heal(a, b NodeID) {
	if fi := l.rt.FaultInjector(); fi != nil {
		fi.Heal(a, b)
	}
}

// HealAll removes every fault-injection rule.
func (l *Live) HealAll() {
	if fi := l.rt.FaultInjector(); fi != nil {
		fi.Reset()
	}
}

// TransportStats snapshots the TCP transport's counters; the zero value
// is returned when the runtime has no transport.
func (l *Live) TransportStats() live.TransportStats {
	if l.tr == nil {
		return live.TransportStats{}
	}
	return l.tr.Stats()
}

// Events returns a snapshot of run outcomes.
func (l *Live) Events() EventsData { return l.events.Snapshot() }

// Sketches returns the runtime's windowed quantile sketch set (always
// non-nil): allocation latency, delivery RTT, failover time, supervisor
// queue occupancy. The same set backs the /sketches endpoint.
func (l *Live) Sketches() *SketchSet { return l.sk }

// Decisions returns the RM decision audit ring (always non-nil); the
// same ring backs the /decisions endpoint.
func (l *Live) Decisions() *DecisionLog { return l.dec }

// NowMicros is the runtime clock (micros since start) — the timescale
// sketch windows rotate on.
func (l *Live) NowMicros() int64 { return l.rt.NowMicros() }

// syncTraceMetrics refreshes the tracer gauges from the tracer's
// counters; it runs before every /metrics scrape.
func (l *Live) syncTraceMetrics() {
	if l.tracer == nil {
		return
	}
	l.trBegun.Set(float64(l.tracer.SessionsBegun()))
	l.trOpen.Set(float64(l.tracer.OpenSessions()))
	l.trDropped.Set(float64(l.tracer.Dropped()))
}

// Metrics returns the runtime's labeled metrics registry (always
// non-nil); the same registry backs the /metrics endpoint.
func (l *Live) Metrics() *metrics.Registry { return l.reg }

// DiscoveryDiagJSON is one hosted peer's discovery-backend snapshot as
// served by the /dht endpoint.
type DiscoveryDiagJSON struct {
	ID   NodeID             `json:"id"`
	Diag core.DiscoveryDiag `json:"diag"`
}

// DiscoveryDiags snapshots every hosted peer's discovery backend in ID
// order. Each snapshot is taken on the peer's own loop (rt.Call), so the
// view is internally consistent per peer. The same data backs /dht.
func (l *Live) DiscoveryDiags() []DiscoveryDiagJSON {
	ids := make([]NodeID, 0, len(l.peers))
	for id := range l.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]DiscoveryDiagJSON, 0, len(ids))
	for _, id := range ids {
		p := l.peers[id]
		var d core.DiscoveryDiag
		l.rt.Call(id, func() { d = p.DiscoveryDiag() })
		out = append(out, DiscoveryDiagJSON{ID: id, Diag: d})
	}
	return out
}

// writeDiscoveryDiags renders the /dht document.
func (l *Live) writeDiscoveryDiags(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Nodes []DiscoveryDiagJSON `json:"nodes"`
	}{l.DiscoveryDiags()})
}

// ServeDiagnostics starts the HTTP diagnostics endpoint (/metrics,
// /metrics.json, /healthz, /sketches, /decisions, /trace,
// /debug/pprof) on addr and returns the bound address. It is shut down
// by Close.
func (l *Live) ServeDiagnostics(addr string) (string, error) {
	src := live.DiagSources{
		BeforeScrape: l.syncTraceMetrics,
		Sketches: func(w io.Writer) error {
			return l.sk.WriteJSON(w, l.rt.NowMicros())
		},
		Decisions: l.dec.WriteJSON,
		DHT:       l.writeDiscoveryDiags,
	}
	if l.tracer != nil {
		src.Trace = l.tracer.WriteJSONL
	}
	ds, err := l.rt.ServeDiagnosticsOpts(addr, l.reg, src)
	if err != nil {
		return "", err
	}
	l.diag = ds
	return ds.Addr(), nil
}

// StopPeer gracefully stops one hosted peer.
func (l *Live) StopPeer(id NodeID) {
	l.rt.Stop(id)
	delete(l.peers, id)
}

// Close shuts everything down; it is idempotent. Nodes stop first so
// the recorder (when active) captures their final digests, then the log
// is flushed and closed along with the transport and diagnostics server.
func (l *Live) Close() {
	l.closeOnce.Do(func() {
		l.rt.Shutdown()
		l.StopRecord()
		if l.tr != nil {
			l.tr.Close()
		}
		if l.diag != nil {
			l.diag.Close()
		}
	})
}
