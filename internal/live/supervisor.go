package live

import (
	"bufio"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// supervisor owns all outbound traffic to one remote address. Senders
// only ever enqueue onto its bounded queue (TCPTransport.send), so an
// actor's Send never dials, never touches a socket, and never blocks on
// a slow peer. The supervisor goroutine dials with a timeout, writes
// frames under a write deadline, and on failure reconnects with
// exponential backoff + jitter; after CircuitThreshold consecutive dial
// failures it opens the circuit — sends drop immediately with reason
// circuit_open — and keeps probing at the cooldown cadence (half-open)
// until the peer answers again.
//
// Two mechanisms ride on the same loop:
//
// Coalescing — each wakeup drains whatever is already queued (bounded
// by FlushBudget and maxBatchBytes) into one buffer and writes it with
// a single syscall. An empty queue flushes immediately, so batching
// never adds latency; it only amortizes write cost when messages are
// already waiting.
//
// Credits — the remote reader grants message/byte credits back over
// the same socket (readGrants). Senders spend one message credit per
// enqueue and batch-size byte credits per flush; when either runs out,
// new sends shed at the source with reason no_credit instead of
// overwhelming a slow receiver. Until the first grant arrives the
// window is unlimited, so a receiver with granting disabled
// (CreditWindowMsgs or CreditWindowBytes negative) never throttles its
// senders.
type supervisor struct {
	tr   *TCPTransport
	addr string

	queue chan wireMsg
	quit  chan struct{}
	done  chan struct{}

	// state is supHealthy or supOpen; senders read it lock-free to fail
	// fast while the circuit is broken.
	state atomic.Int32

	// Credit window granted by the remote reader. creditOn flips true at
	// the first grant; senders (enqueue) and the flush path spend the
	// window lock-free.
	creditOn    atomic.Bool
	creditMsgs  atomic.Int64
	creditBytes atomic.Int64

	// The fields below are owned by the run goroutine.
	r             *rng.Rand // jitter stream, split from the runtime's seed
	conn          net.Conn
	everConnected bool
	batch         []byte // coalesced frames, capacity reused across flushes
	scratch       []byte // frame body scratch, capacity reused across frames
}

// Supervisor circuit states.
const (
	supHealthy int32 = iota
	supOpen
)

// maxBatchBytes caps one coalesced write; past it the batch is flushed
// even if more messages are queued.
const maxBatchBytes = 256 << 10

func newSupervisor(t *TCPTransport, addr string, r *rng.Rand) *supervisor {
	return &supervisor{
		tr:    t,
		addr:  addr,
		queue: make(chan wireMsg, t.cfg.QueueDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		r:     r,
	}
}

// run is the supervisor's event loop: drain the queue, keeping the
// connection alive across failures.
func (s *supervisor) run() {
	defer s.tr.wg.Done()
	defer close(s.done)
	defer s.dropConn()
	for {
		select {
		case <-s.quit:
			return
		case wm := <-s.queue:
			if !s.flush(wm) {
				return
			}
		}
	}
}

// appendMsg encodes one message onto the batch. Encode failures drop
// the message (counted) without disturbing the batch.
func (s *supervisor) appendMsg(wm wireMsg) bool {
	var err error
	s.batch, err = appendFrame(s.batch, wm, s.tr.cfg.MaxFrame, &s.scratch)
	if err != nil {
		s.tr.countDrop(DropEncodeError)
		s.tr.logTransport(s.addr, "encode failed: "+err.Error())
		return false
	}
	return true
}

// flush coalesces first plus whatever else is already queued into one
// buffer and writes it with a single syscall, (re)establishing the
// connection as needed. It reports false when the supervisor was told
// to quit.
func (s *supervisor) flush(first wireMsg) bool {
	cfg := s.tr.cfg
	s.batch = s.batch[:0]
	frames := 0
	if s.appendMsg(first) {
		frames++
	}
	if cfg.FlushBudget > 0 {
		// Drain without blocking: an empty queue flushes immediately, so
		// the budget only caps how long a sustained burst can keep the
		// batch open before bytes hit the wire.
		var deadline time.Time
	drain:
		for len(s.batch) < maxBatchBytes {
			select {
			case wm := <-s.queue:
				if s.appendMsg(wm) {
					frames++
				}
				if deadline.IsZero() {
					deadline = time.Now().Add(cfg.FlushBudget)
				} else if !time.Now().Before(deadline) {
					break drain
				}
			default:
				break drain
			}
		}
	}
	if frames == 0 {
		return true
	}
	if s.creditOn.Load() {
		// Byte credits are spent per flush; enqueue stops admitting new
		// messages once the window is exhausted (briefly negative is
		// fine — the next grant absorbs it).
		s.creditBytes.Add(-int64(len(s.batch)))
	}
	for attempt := 0; ; attempt++ {
		if s.conn == nil {
			if !s.connect() {
				return false
			}
		}
		s.conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if _, err := s.conn.Write(s.batch); err == nil {
			s.tr.countSentN(frames)
			s.tr.noteBatch(frames)
			return true
		}
		// The connection went bad mid-write; retry once on a fresh
		// connection, then give the batch up (best-effort transport).
		s.dropConn()
		if attempt >= 1 {
			s.tr.countDropN(DropWriteError, frames)
			return true
		}
	}
}

// connect dials until a connection is up, backing off exponentially
// with jitter from the supervisor's rng stream. It returns false when
// the supervisor was told to quit. Once the circuit opens, retries slow
// to the cooldown cadence; each retry is the half-open probe. The
// version byte is written here and a grant reader is attached before
// any frame flows.
func (s *supervisor) connect() bool {
	cfg := s.tr.cfg
	backoff := cfg.BackoffBase
	fails := 0
	for {
		conn, err := cfg.Dial(s.addr, cfg.DialTimeout)
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			if _, werr := conn.Write([]byte{wirePreamble}); werr != nil {
				conn.Close()
				err = werr
			}
		}
		if err == nil {
			s.conn = conn
			// Fresh connection, fresh window: the receiver re-issues its
			// initial grant for this socket.
			s.resetCredits()
			s.tr.wg.Add(1)
			go s.readGrants(conn)
			reconnect := s.everConnected || fails > 0
			s.everConnected = true
			wasOpen := s.state.Swap(supHealthy) == supOpen
			s.tr.noteConnected(s.addr, reconnect, wasOpen)
			return true
		}
		fails++
		if fails >= cfg.CircuitThreshold && s.state.CompareAndSwap(supHealthy, supOpen) {
			s.tr.noteCircuitOpen(s.addr, err)
		}
		// Full jitter over the upper half keeps a fleet of supervisors
		// from thundering back in lock-step after a peer restart.
		wait := backoff/2 + time.Duration(s.r.Float64()*float64(backoff/2))
		if backoff < cfg.BackoffMax {
			backoff *= 2
			if backoff > cfg.BackoffMax {
				backoff = cfg.BackoffMax
			}
		}
		if s.state.Load() == supOpen && wait < cfg.CircuitCooldown {
			wait = cfg.CircuitCooldown
		}
		timer := time.NewTimer(wait)
		select {
		case <-s.quit:
			timer.Stop()
			return false
		case <-timer.C:
		}
	}
}

// readGrants consumes credit frames the remote reader sends back on the
// outbound connection, widening the send window. It exits when the
// connection dies (any read error); a replacement is attached by the
// next connect.
func (s *supervisor) readGrants(conn net.Conn) {
	defer s.tr.wg.Done()
	br := bufio.NewReaderSize(conn, 64)
	var buf []byte
	for {
		body, err := readFrame(br, maxCreditFrame, buf)
		if err != nil {
			return
		}
		buf = body
		if len(body) == 0 || body[0] != frameCredit {
			return
		}
		msgs, bytes, err := decodeCreditFrame(body)
		if err != nil {
			return
		}
		s.creditMsgs.Add(int64(msgs))
		s.creditBytes.Add(int64(bytes))
		s.creditOn.Store(true)
	}
}

// resetCredits returns the window to "unlimited until first grant".
func (s *supervisor) resetCredits() {
	s.creditOn.Store(false)
	s.creditMsgs.Store(0)
	s.creditBytes.Store(0)
}

// spendCredit admits or sheds one message against the granted window.
// Message credits are spent here at enqueue; byte credits are only
// checked (they are spent per flush, where the batch size is known).
func (s *supervisor) spendCredit() bool {
	if !s.creditOn.Load() {
		return true
	}
	if s.creditMsgs.Load() <= 0 || s.creditBytes.Load() <= 0 {
		return false
	}
	s.creditMsgs.Add(-1)
	return true
}

// refundCredit returns one message credit (enqueue admitted the message
// but the queue turned out to be full).
func (s *supervisor) refundCredit() {
	if s.creditOn.Load() {
		s.creditMsgs.Add(1)
	}
}

// dropConn closes and forgets the current connection. Credits die with
// the socket: the grant reader exits on the close and the next
// connection starts a fresh window.
func (s *supervisor) dropConn() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.resetCredits()
		s.tr.noteDisconnected()
	}
}

// circuitOpen reports whether sends to this peer should fail fast.
func (s *supervisor) circuitOpen() bool { return s.state.Load() == supOpen }
