package live

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// wireMsg is the unit carried over TCP (see wire.go for the framing).
// Payloads must be messages the proto codec encodes.
type wireMsg struct {
	From    env.NodeID
	To      env.NodeID
	Payload any
}

// DropReason classifies outbound messages the transport discarded; each
// reason is a labeled series of live_transport_dropped_total.
type DropReason int

// Drop reasons.
const (
	DropQueueFull   DropReason = iota // supervisor queue at capacity
	DropCircuitOpen                   // peer circuit-broken after repeated dial failures
	DropEncodeError                   // payload outside the wire codec or exceeded MaxFrame
	DropWriteError                    // connection broke mid-write, retry failed
	DropNoRoute                       // destination not in the address book
	DropFault                         // discarded by the fault-injection layer
	DropNoCredit                      // receiver's credit window exhausted; shed at the source
	numDropReasons
)

// String returns the metric label value for the reason.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue_full"
	case DropCircuitOpen:
		return "circuit_open"
	case DropEncodeError:
		return "encode_error"
	case DropWriteError:
		return "write_error"
	case DropNoRoute:
		return "no_route"
	case DropFault:
		return "fault"
	case DropNoCredit:
		return "no_credit"
	}
	return "unknown"
}

// Transport metric families (registered when a Registry is attached).
const (
	MetricTransportSent         = "live_transport_sent_total"
	MetricTransportDropped      = "live_transport_dropped_total"
	MetricTransportConnects     = "live_transport_connects_total"
	MetricTransportReconnects   = "live_transport_reconnects_total"
	MetricTransportCircuitOpens = "live_transport_circuit_opens_total"
	MetricTransportFramesRx     = "live_transport_frames_rx_total"
	MetricTransportDecodeErrors = "live_transport_decode_errors_total"
	MetricTransportFrameErrors  = "live_transport_frame_errors_total"
	MetricTransportConnsOut     = "live_transport_conns_out"
	MetricTransportConnsIn      = "live_transport_conns_in"
	MetricTransportBatches      = "live_transport_batches_total"
)

// TransportConfig tunes the supervised transport. The zero value maps
// every field to a production default (see withDefaults).
type TransportConfig struct {
	// DialTimeout bounds one connection attempt. Default 3s.
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline. Default 5s.
	WriteTimeout time.Duration
	// ReadIdleTimeout closes an inbound connection with no traffic for
	// this long (the sender's supervisor redials on demand). Heartbeats
	// keep healthy links well under it. Default 2m; negative disables.
	ReadIdleTimeout time.Duration
	// MaxFrame bounds one frame's payload in bytes, on both the encode
	// and decode side. Default DefaultMaxFrame; negative disables.
	MaxFrame int
	// QueueDepth bounds each peer supervisor's send queue; sends beyond
	// it drop with reason queue_full. Default 512.
	QueueDepth int
	// BackoffBase and BackoffMax bound the exponential reconnect
	// backoff (jittered). Defaults 25ms and 3s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CircuitThreshold is the number of consecutive dial failures after
	// which a peer's circuit opens (sends fail fast with reason
	// circuit_open). Default 5.
	CircuitThreshold int
	// CircuitCooldown is the probe cadence while a circuit is open.
	// Default 2s.
	CircuitCooldown time.Duration
	// FlushBudget caps how long one coalesced write may keep draining a
	// busy queue before its bytes hit the wire. An empty queue always
	// flushes immediately, so the budget bounds worst-case batching
	// latency without adding any. Default 1ms; negative disables
	// coalescing (one write per message).
	FlushBudget time.Duration
	// CreditWindowMsgs and CreditWindowBytes size the credit window this
	// transport grants each inbound connection. Senders shed with
	// reason no_credit once they exhaust the window, pushing overload
	// back to the source. Defaults 8192 messages and 4 MiB; negative
	// disables granting (remote senders then run uncapped).
	CreditWindowMsgs  int
	CreditWindowBytes int
	// Dial overrides the dialer (tests inject blackholed or failing
	// dialers). Default net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// withDefaults fills unset fields.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = 2 * time.Minute
	} else if c.ReadIdleTimeout < 0 {
		c.ReadIdleTimeout = 0
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	} else if c.MaxFrame < 0 {
		c.MaxFrame = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 512
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	if c.CircuitThreshold <= 0 {
		c.CircuitThreshold = 5
	}
	if c.CircuitCooldown <= 0 {
		c.CircuitCooldown = 2 * time.Second
	}
	if c.FlushBudget == 0 {
		c.FlushBudget = time.Millisecond
	} else if c.FlushBudget < 0 {
		c.FlushBudget = 0
	}
	if c.CreditWindowMsgs == 0 {
		c.CreditWindowMsgs = 8192
	} else if c.CreditWindowMsgs < 0 {
		c.CreditWindowMsgs = 0
	}
	if c.CreditWindowBytes == 0 {
		c.CreditWindowBytes = 4 << 20
	} else if c.CreditWindowBytes < 0 {
		c.CreditWindowBytes = 0
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// Transport send errors (sent back to liveNode.Send, which folds them
// into the runtime's dropped counter).
var (
	errTransportClosed = errors.New("live: transport closed")
	errCircuitOpen     = errors.New("live: peer circuit open")
	errQueueFull       = errors.New("live: send queue full")
	errNoCredit        = errors.New("live: peer credit window exhausted")
)

// TCPTransport connects live runtimes across processes. Each process
// hosts some node IDs locally and routes the rest through the address
// book. Every remote address is owned by a connection supervisor
// (supervisor.go); inbound connections are read through the framing in
// wire.go.
type TCPTransport struct {
	rt  *Runtime
	cfg TransportConfig

	mu       sync.Mutex
	book     map[env.NodeID]string  // remote node -> "host:port"; guarded by mu
	sups     map[string]*supervisor // addr -> owning supervisor; guarded by mu
	accepted map[net.Conn]bool      // inbound connections being read; guarded by mu
	ln       net.Listener           // guarded by mu
	closed   bool                   // guarded by mu
	wg       sync.WaitGroup

	// Always-on atomic stats (Stats); mirrored into m when attached.
	sent         atomic.Uint64
	batches      atomic.Uint64
	framesRx     atomic.Uint64
	decodeErrors atomic.Uint64
	frameErrors  atomic.Uint64
	connects     atomic.Uint64
	reconnects   atomic.Uint64
	circuitOpens atomic.Uint64
	drops        [numDropReasons]atomic.Uint64

	m      *transportMetrics
	tracer *trace.Tracer
	sk     *stats.Set // nil-safe; fed supervisor queue occupancy per enqueue
}

// transportMetrics holds the pre-registered registry instruments; nil
// when no registry is attached.
type transportMetrics struct {
	sent, connects, reconnects, circuitOpens *metrics.Counter
	framesRx, decodeErrors, frameErrors      *metrics.Counter
	batches                                  *metrics.Counter
	drops                                    [numDropReasons]*metrics.Counter
	connsOut, connsIn                        *metrics.Gauge
}

// newTransportMetrics registers the transport families into reg.
func newTransportMetrics(reg *metrics.Registry) *transportMetrics {
	if reg == nil {
		return nil
	}
	m := &transportMetrics{
		sent:         reg.Counter(MetricTransportSent, "Frames written to remote peers.", nil),
		connects:     reg.Counter(MetricTransportConnects, "Outbound connections established.", nil),
		reconnects:   reg.Counter(MetricTransportReconnects, "Outbound connections re-established after a failure or loss.", nil),
		circuitOpens: reg.Counter(MetricTransportCircuitOpens, "Peer circuits opened after repeated dial failures.", nil),
		framesRx:     reg.Counter(MetricTransportFramesRx, "Frames received and injected into the runtime.", nil),
		decodeErrors: reg.Counter(MetricTransportDecodeErrors, "Inbound frames whose payload failed to decode (connection kept).", nil),
		frameErrors:  reg.Counter(MetricTransportFrameErrors, "Inbound framing violations (oversized or truncated; connection closed).", nil),
		batches:      reg.Counter(MetricTransportBatches, "Coalesced writes to remote peers (each carries one or more frames).", nil),
		connsOut:     reg.Gauge(MetricTransportConnsOut, "Open outbound connections.", nil),
		connsIn:      reg.Gauge(MetricTransportConnsIn, "Open inbound connections.", nil),
	}
	for r := DropReason(0); r < numDropReasons; r++ {
		m.drops[r] = reg.Counter(MetricTransportDropped,
			"Outbound messages dropped by the transport, by reason.",
			metrics.Labels{"reason": r.String()})
	}
	return m
}

// NewTCPTransport attaches a TCP transport with default configuration
// and no metrics to rt: messages to IDs not hosted locally are routed
// through the address book.
func NewTCPTransport(rt *Runtime) *TCPTransport {
	return NewTCPTransportOpts(rt, TransportConfig{}, nil, nil)
}

// NewTCPTransportOpts attaches a TCP transport to rt with explicit
// configuration. reg (may be nil) receives the live_transport_* metric
// families; tracer (may be nil) receives reconnect/circuit instants.
func NewTCPTransportOpts(rt *Runtime, cfg TransportConfig, reg *metrics.Registry, tracer *trace.Tracer) *TCPTransport {
	t := &TCPTransport{
		rt:       rt,
		cfg:      cfg.withDefaults(),
		book:     make(map[env.NodeID]string),
		sups:     make(map[string]*supervisor),
		accepted: make(map[net.Conn]bool),
		tracer:   tracer,
	}
	if reg != nil {
		t.m = newTransportMetrics(reg)
	}
	rt.mu.Lock()
	rt.remote = t.send
	rt.mu.Unlock()
	return t
}

// AttachSketches installs the windowed sketch set that receives the
// supervisor queue occupancy (0..1 of QueueDepth) on every enqueue. Must
// be called before traffic flows; a nil set keeps the transport silent.
func (t *TCPTransport) AttachSketches(sk *stats.Set) { t.sk = sk }

// Register maps a remote node ID to its listener address.
func (t *TCPTransport) Register(id env.NodeID, addr string) {
	t.mu.Lock()
	t.book[id] = addr
	t.mu.Unlock()
}

// Listen starts accepting inbound frames on addr and returns the bound
// address (useful with ":0").
func (t *TCPTransport) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", errTransportClosed
	}
	t.ln = ln
	t.wg.Add(1)
	t.mu.Unlock()
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *TCPTransport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Bookkeeping and wg.Add happen under one lock hold with the
		// closed check, so Close cannot begin its wg.Wait between the
		// check and the reader being accounted for.
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted[c] = true
		t.wg.Add(1)
		t.mu.Unlock()
		if t.m != nil {
			t.m.connsIn.Inc()
		}
		go t.readLoop(c)
	}
}

// readLoop reads frames from one inbound connection. A connection that
// does not open with the version byte wirePreamble is closed and
// counted as a frame error. Payload decode errors are counted and
// skipped — the framing keeps the stream in sync — while framing
// violations and read-deadline expiry close the connection (the
// sender's supervisor redials on demand).
func (t *TCPTransport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
		if t.m != nil {
			t.m.connsIn.Dec()
		}
	}()
	br := bufio.NewReader(c)
	if t.cfg.ReadIdleTimeout > 0 {
		c.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout))
	}
	first, err := br.ReadByte()
	if err != nil {
		return
	}
	if first != wirePreamble {
		t.noteFrameError(c, fmt.Errorf("live: connection opened with 0x%02x, not the version byte 0x%02x", first, wirePreamble))
		return
	}
	t.readStream(c, br)
}

// readStream reads the frames that follow the version byte (wire.go).
// It is also the credit grantor: it issues an initial window as soon as
// the stream opens and tops the sender back up once half the window has
// been consumed, so a healthy connection always has credit in flight.
func (t *TCPTransport) readStream(c net.Conn, br *bufio.Reader) {
	grantMsgs, grantBytes := t.cfg.CreditWindowMsgs, t.cfg.CreditWindowBytes
	granting := grantMsgs > 0 && grantBytes > 0
	var gbuf []byte
	writeGrant := func(msgs, bytes int) bool {
		if !granting {
			return true
		}
		gbuf = appendCreditFrame(gbuf[:0], uint64(msgs), uint64(bytes))
		c.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		_, err := c.Write(gbuf)
		return err == nil
	}
	if !writeGrant(grantMsgs, grantBytes) {
		return
	}
	var buf []byte
	usedMsgs, usedBytes := 0, 0
	for {
		if t.cfg.ReadIdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout))
		}
		body, err := readFrame(br, t.cfg.MaxFrame, buf)
		if err != nil {
			t.noteFrameError(c, err)
			return
		}
		buf = body
		if len(body) == 0 {
			t.noteFrameError(c, errors.New("live: empty v2 frame"))
			return
		}
		switch body[0] {
		case frameData:
			wm, err := decodeFrameData(body)
			if err != nil {
				t.noteDecodeError(c, err)
				break
			}
			t.noteFrameRx()
			t.rt.Inject(wm.From, wm.To, wm.Payload)
		default:
			// Unknown, retired or misdirected credit frame kind: the
			// framing is still in sync, so count it and keep the
			// connection.
			t.noteDecodeError(c, fmt.Errorf("live: unexpected v2 frame kind 0x%02x", body[0]))
		}
		// Credit accounting counts every frame read, decodable or not —
		// the sender spent window for each.
		usedMsgs++
		usedBytes += len(body)
		if granting && (usedMsgs*2 >= grantMsgs || usedBytes*2 >= grantBytes) {
			if !writeGrant(usedMsgs, usedBytes) {
				return
			}
			usedMsgs, usedBytes = 0, 0
		}
	}
}

// noteFrameRx counts one inbound frame injected into the runtime.
func (t *TCPTransport) noteFrameRx() {
	t.framesRx.Add(1)
	if t.m != nil {
		t.m.framesRx.Inc()
	}
}

// noteFrameError counts one inbound framing violation (quietly ignoring
// orderly shutdown errors).
func (t *TCPTransport) noteFrameError(c net.Conn, err error) {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	t.frameErrors.Add(1)
	if t.m != nil {
		t.m.frameErrors.Inc()
	}
	t.logTransport(c.RemoteAddr().String(), "framing error: "+err.Error())
}

// noteDecodeError counts one inbound payload that failed to decode.
func (t *TCPTransport) noteDecodeError(c net.Conn, err error) {
	t.decodeErrors.Add(1)
	if t.m != nil {
		t.m.decodeErrors.Inc()
	}
	t.logTransport(c.RemoteAddr().String(), "decode error: "+err.Error())
}

// send routes one outbound message; it is installed as Runtime.remote.
// It never dials and never blocks on a socket: the message is enqueued
// onto the destination supervisor's bounded queue (or dropped, with the
// reason counted).
func (t *TCPTransport) send(from, to env.NodeID, m env.Message) error {
	if fi := t.rt.FaultInjector(); fi != nil {
		d := fi.decide(from, to)
		t.rt.recordFault(from, to, d)
		if d.drop {
			t.countDrop(DropFault)
			return nil // impaired on purpose; not a routing failure
		}
		if d.delay > 0 {
			time.AfterFunc(d.delay, func() {
				t.enqueue(from, to, m)
				if d.dup {
					t.enqueue(from, to, m)
				}
			})
			return nil
		}
		if d.dup {
			t.enqueue(from, to, m)
		}
	}
	return t.enqueue(from, to, m)
}

// enqueue hands one message to the destination's supervisor, creating
// it on first use.
func (t *TCPTransport) enqueue(from, to env.NodeID, m env.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errTransportClosed
	}
	addr, ok := t.book[to]
	if !ok {
		t.mu.Unlock()
		t.countDrop(DropNoRoute)
		return fmt.Errorf("live: no address for node %d", to)
	}
	s := t.sups[addr]
	if s == nil {
		s = newSupervisor(t, addr, t.rt.splitRand())
		t.sups[addr] = s
		t.wg.Add(1)
		go s.run()
	}
	t.mu.Unlock()
	if s.circuitOpen() {
		t.countDrop(DropCircuitOpen)
		return errCircuitOpen
	}
	if !s.spendCredit() {
		t.countDrop(DropNoCredit)
		return errNoCredit
	}
	select {
	case s.queue <- wireMsg{From: from, To: to, Payload: m}:
		// Guarded so the disabled path never pays the clock read: the
		// Observe arguments are evaluated before its own nil check.
		if t.sk != nil {
			t.sk.Observe(stats.SketchQueueOcc, t.rt.nowMicros(),
				float64(len(s.queue))/float64(t.cfg.QueueDepth))
		}
		return nil
	default:
		s.refundCredit()
		t.countDrop(DropQueueFull)
		return errQueueFull
	}
}

// countSent records one frame written.
func (t *TCPTransport) countSent() { t.countSentN(1) }

// countSentN records n frames written (one coalesced batch).
func (t *TCPTransport) countSentN(n int) {
	t.sent.Add(uint64(n))
	if t.m != nil {
		t.m.sent.Add(n)
	}
}

// countDrop records one outbound drop under its reason.
func (t *TCPTransport) countDrop(r DropReason) { t.countDropN(r, 1) }

// countDropN records n outbound drops under one reason (a batch whose
// write failed past retry).
func (t *TCPTransport) countDropN(r DropReason, n int) {
	t.drops[r].Add(uint64(n))
	if t.m != nil {
		t.m.drops[r].Add(n)
	}
}

// noteBatch records one coalesced write carrying frames messages and
// feeds the batch-size sketch.
func (t *TCPTransport) noteBatch(frames int) {
	t.batches.Add(1)
	if t.m != nil {
		t.m.batches.Inc()
	}
	if t.sk != nil {
		t.sk.Observe(stats.SketchBatchFrames, t.rt.nowMicros(), float64(frames))
	}
}

// noteConnected records a successful outbound dial.
func (t *TCPTransport) noteConnected(addr string, reconnect, wasOpen bool) {
	t.connects.Add(1)
	if reconnect {
		t.reconnects.Add(1)
	}
	if t.m != nil {
		t.m.connects.Inc()
		t.m.connsOut.Inc()
		if reconnect {
			t.m.reconnects.Inc()
		}
	}
	if reconnect || wasOpen {
		if tr := t.tracer; tr != nil {
			tr.TransportInstant(t.rt.nowMicros(), trace.TransportReconnect, addr,
				trace.A("circuit_was_open", wasOpen))
		}
		t.logTransport(addr, "reconnected")
	}
}

// noteDisconnected records an outbound connection loss.
func (t *TCPTransport) noteDisconnected() {
	if t.m != nil {
		t.m.connsOut.Dec()
	}
}

// noteCircuitOpen records a peer's circuit opening.
func (t *TCPTransport) noteCircuitOpen(addr string, cause error) {
	t.circuitOpens.Add(1)
	if t.m != nil {
		t.m.circuitOpens.Inc()
	}
	if tr := t.tracer; tr != nil {
		tr.TransportInstant(t.rt.nowMicros(), trace.TransportCircuitOpen, addr,
			trace.A("cause", cause.Error()))
	}
	t.logTransport(addr, "circuit open: "+cause.Error())
}

// logTransport emits one transport diagnostic line (nil-safe).
func (t *TCPTransport) logTransport(addr, msg string) {
	t.rt.Logger.Log(
		"t", time.Since(t.rt.start).Truncate(time.Millisecond),
		"transport", addr,
		"msg", msg,
	)
}

// TransportStats is a point-in-time snapshot of the transport counters.
type TransportStats struct {
	Sent         uint64
	Batches      uint64
	FramesRx     uint64
	DecodeErrors uint64
	FrameErrors  uint64
	Connects     uint64
	Reconnects   uint64
	CircuitOpens uint64
	Drops        map[string]uint64 // reason -> count; zero reasons omitted
}

// Stats snapshots the transport counters (available with or without an
// attached metrics registry).
func (t *TCPTransport) Stats() TransportStats {
	st := TransportStats{
		Sent:         t.sent.Load(),
		Batches:      t.batches.Load(),
		FramesRx:     t.framesRx.Load(),
		DecodeErrors: t.decodeErrors.Load(),
		FrameErrors:  t.frameErrors.Load(),
		Connects:     t.connects.Load(),
		Reconnects:   t.reconnects.Load(),
		CircuitOpens: t.circuitOpens.Load(),
		Drops:        make(map[string]uint64),
	}
	for r := DropReason(0); r < numDropReasons; r++ {
		if n := t.drops[r].Load(); n > 0 {
			st.Drops[r.String()] = n
		}
	}
	return st
}

// Close shuts the listener, every supervisor, and every inbound
// connection down, then waits for all transport goroutines to drain.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	t.closed = true
	ln := t.ln
	sups := make([]*supervisor, 0, len(t.sups))
	for _, s := range t.sups {
		sups = append(sups, s)
	}
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sups {
		close(s.quit)
	}
	t.wg.Wait()
}
