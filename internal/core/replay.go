package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/env"
	"repro/internal/proto"
)

// Flight-recorder hooks: the live runtime's recorder (internal/replay)
// checkpoints each actor's StateDigest as it records, and the replayer
// rebuilds actors from their ReplayInit blob and compares digests at the
// same points. Both sides must hash exactly the same state in exactly
// the same order, so everything here iterates maps via sorted keys and
// the RM tables in their key order.

// ReplayInit serializes the peer's construction parameters for the
// flight recorder. It is callable before Init (the recorder logs it at
// node start, ahead of the first handler). The blob is a codec-encoded
// Join envelope: Info is the peer's self-description and Hops carries
// the bootstrap node, the one constructor argument Join has no field
// for. Config and Events are supplied by the replay harness, which
// knows the run's configuration.
func (p *Peer) ReplayInit() []byte {
	b, _ := proto.AppendMessage(nil, proto.Join{Info: p.info, Hops: int(p.bootstrap)})
	return b
}

// NewFromReplayInit rebuilds a peer actor from a recorded ReplayInit
// blob. cfg and events come from the harness: configuration is an input
// of the run, not something the recorder captures.
func NewFromReplayInit(cfg Config, data []byte, events *Events) (*Peer, error) {
	m, err := proto.DecodeMessage(data)
	if err != nil {
		return nil, fmt.Errorf("core: decoding replay init: %w", err)
	}
	j, ok := m.(proto.Join)
	if !ok {
		return nil, fmt.Errorf("core: replay init is a %T, want proto.Join", m)
	}
	return New(cfg, j.Info, env.NodeID(j.Hops), events), nil
}

// digestWriter accumulates an FNV-1a hash over typed fields.
type digestWriter struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigestWriter() *digestWriter { return &digestWriter{h: fnv.New64a()} }

func (d *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digestWriter) i64(v int64)   { d.u64(uint64(v)) }
func (d *digestWriter) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digestWriter) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digestWriter) boolean(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digestWriter) sum() uint64 { return d.h.Sum64() }

// StateDigest hashes the peer's protocol-visible state deterministically.
// It covers membership, submission bookkeeping, data-plane roles and the
// full Resource-Manager view; it deliberately excludes profiler EWMA
// internals and scheduler queue details, whose own determinism is
// exercised transitively through the messages they cause. Called only
// from the actor's own event loop (or after it has exited).
func (p *Peer) StateDigest() uint64 {
	d := newDigestWriter()

	// Membership.
	d.boolean(p.joined)
	d.i64(int64(p.domain))
	d.i64(int64(p.rmID))
	d.i64(int64(p.backupID))
	d.u64(uint64(len(p.contacts)))
	for _, c := range p.contacts {
		d.i64(int64(c))
	}
	d.i64(int64(p.joinHops))
	d.i64(int64(p.rejoinTries))
	d.boolean(p.awaitingAnnounce)
	d.f64(p.bgRate)

	// Replicated backup state.
	d.boolean(p.backupState != nil)
	if p.backupState != nil {
		d.i64(int64(p.backupState.Domain))
		d.u64(p.backupState.Version)
		d.u64(uint64(len(p.backupState.Peers)))
		d.u64(uint64(len(p.backupState.Sessions)))
	}

	// Own submissions.
	d.u64(uint64(len(p.submits)))
	for _, id := range sortedMapKeys(p.submits) {
		d.str(id)
		d.i64(int64(p.submits[id]))
	}

	// Data-plane roles.
	d.u64(uint64(len(p.asSource)))
	for _, id := range sortedMapKeys(p.asSource) {
		s := p.asSource[id]
		d.str(id)
		d.boolean(s.emitting)
		d.i64(int64(s.next))
		d.i64(int64(s.desc.Generation))
	}
	d.u64(uint64(len(p.asStage)))
	for _, id := range sortedMapKeys(p.asStage) {
		s := p.asStage[id]
		d.str(id)
		d.i64(int64(s.role))
		d.u64(uint64(len(s.tasks)))
		d.i64(int64(s.desc.Generation))
	}
	d.u64(uint64(len(p.asSink)))
	for _, id := range sortedMapKeys(p.asSink) {
		s := p.asSink[id]
		d.str(id)
		got := 0
		for _, r := range s.received {
			if r {
				got++
			}
		}
		d.i64(int64(got))
		d.i64(int64(s.late))
		d.i64(int64(s.firstAt))
		d.boolean(s.finalized)
	}

	// Resource-Manager view.
	d.boolean(p.rm != nil)
	if st := p.rm; st != nil {
		d.i64(int64(st.domain))
		d.u64(st.version)
		d.i64(int64(st.backup))
		d.u64(st.hbSeq)

		d.u64(uint64(len(st.peers)))
		for _, rec := range st.peers {
			d.i64(int64(rec.id))
			d.f64(rec.load)
			d.f64(rec.bw)
			d.i64(int64(rec.lastReport))
			d.f64(rec.info.SpeedWU)
		}

		d.u64(uint64(len(st.domains)))
		for _, rec := range st.domains {
			d.i64(int64(rec.id))
			d.i64(int64(rec.rm))
		}

		summarized := st.summarized()
		d.u64(uint64(len(summarized)))
		for _, rec := range summarized {
			sum := rec.summary
			d.i64(int64(rec.id))
			d.u64(sum.Version)
			d.i64(int64(sum.RM))
			d.i64(int64(sum.NumPeers))
			d.f64(sum.AvgUtil)
		}

		d.u64(uint64(len(st.sessions)))
		for _, sess := range st.sessions {
			d.str(sess.desc.TaskID)
			d.i64(int64(sess.state))
			d.i64(int64(sess.desc.Generation))
			d.i64(int64(sess.desc.SourcePeer))
			d.u64(uint64(len(sess.desc.Stages)))
			for _, stg := range sess.desc.Stages {
				d.i64(int64(stg.Peer))
				d.f64(stg.Work)
			}
		}
	}

	return d.sum()
}
