package proto

// Wire codec: a compact, hand-rolled binary encoding for the protocol
// message set, and the only encoding used wherever a message leaves
// memory (the live transport's frames, the flight recorder's delivery
// payloads and its node-start and submit blobs). It spends one tag byte
// per message kind, varints for integers (the same idiom as
// internal/replay's P2PRLOG2 framing), fixed 8-byte IEEE bits for
// floats, and inlines TraceContext as two varint u64s (a zero context
// costs two bytes). Encoding appends into a caller-owned buffer and
// decoding reads out of a caller-owned slice, so the steady-state hot
// path allocates nothing beyond the decoded message itself.
//
// Layout per message: [u8 kind][fields in struct order]. Strings and
// byte blobs are length-prefixed (uvarint); slices are count-prefixed,
// and empty slices decode to nil. No message carries a map, whose
// iteration order would let equal messages encode to different bytes.
// A gossip digest's versions are a list kept in canonical form, strictly
// ascending by domain: AppendMessage refuses any other order and the
// decoder rejects it, so a digest has exactly one encoding.
//
// A ProfileUpdate is the five fields of a profiler.Report. Encoders that
// predate this layout appended a per-service and a per-peer timing map;
// their ProfileUpdate frames fail to decode here (trailing bytes), both on
// the live wire and in recordings.
//
// The set of kind tags is append-only: tags are wire format, never
// renumber them. Types outside the set cannot leave memory: the live
// transport drops them as encode_error and the recorder logs a typed
// marker that replay reports as a divergence.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// Message kind tags. Wire format — append, never renumber.
const (
	kindJoin             = 0x01
	kindJoinRedirect     = 0x02
	kindJoinAccept       = 0x03
	kindBecomeRM         = 0x04
	kindLeave            = 0x05
	kindHeartbeatReq     = 0x06
	kindHeartbeatAck     = 0x07
	kindProfileUpdate    = 0x08
	kindBackupSync       = 0x09
	kindTakeoverAnnounce = 0x0a
	kindTaskSubmit       = 0x0b
	kindTaskReject       = 0x0c
	kindGraphCompose     = 0x0d
	kindComposeAck       = 0x0e
	kindSessionStart     = 0x0f
	kindChunk            = 0x10
	kindSessionAbort     = 0x11
	kindSessionEnd       = 0x12
	kindGossipDigest     = 0x13
	kindGossipSummaries  = 0x14
	kindFindNode         = 0x15
	kindFindValue        = 0x16
	kindStore            = 0x17
	kindNodes            = 0x18
	kindProviders        = 0x19
)

// AppendMessage appends the encoding of m to b and reports whether m has
// one: its concrete type must be in the message set and, for a gossip
// digest, its versions strictly ascending by domain. ok=false leaves b
// unchanged.
func AppendMessage(b []byte, m env.Message) ([]byte, bool) {
	switch v := m.(type) {
	case Join:
		b = append(b, kindJoin)
		b = appendPeerInfo(b, v.Info)
		b = appendNum(b, v.Hops)
	case JoinRedirect:
		b = append(b, kindJoinRedirect)
		b = appendNum(b, int(v.Target))
		b = appendStr(b, v.Reason)
	case JoinAccept:
		b = append(b, kindJoinAccept)
		b = appendNum(b, int(v.Domain))
		b = appendNum(b, int(v.RM))
		b = appendNum(b, int(v.Backup))
		b = appendNodeIDs(b, v.Peers)
	case BecomeRM:
		b = append(b, kindBecomeRM)
		b = appendNum(b, int(v.NewDomain))
		b = appendRMRefs(b, v.KnownRMs)
	case Leave:
		b = append(b, kindLeave)
	case HeartbeatReq:
		b = append(b, kindHeartbeatReq)
		b = binary.AppendUvarint(b, v.Seq)
		b = appendNum(b, int(v.Backup))
	case HeartbeatAck:
		b = append(b, kindHeartbeatAck)
		b = binary.AppendUvarint(b, v.Seq)
	case ProfileUpdate:
		b = append(b, kindProfileUpdate)
		b = appendReport(b, v.Report)
	case BackupSync:
		b = append(b, kindBackupSync)
		b = appendDomainState(b, v.State)
	case TakeoverAnnounce:
		b = append(b, kindTakeoverAnnounce)
		b = appendNum(b, int(v.Domain))
		b = appendNum(b, int(v.NewRM))
		b = appendNum(b, int(v.Backup))
	case TaskSubmit:
		b = append(b, kindTaskSubmit)
		b = appendTaskSpec(b, v.Spec)
		b = appendNum(b, v.Hops)
		b = appendTC(b, v.TC)
	case TaskReject:
		b = append(b, kindTaskReject)
		b = appendStr(b, v.TaskID)
		b = appendStr(b, v.Reason)
		b = appendTC(b, v.TC)
	case GraphCompose:
		b = append(b, kindGraphCompose)
		b = appendSessionDesc(b, v.Session)
		b = appendNum(b, v.Role)
	case ComposeAck:
		b = append(b, kindComposeAck)
		b = appendStr(b, v.TaskID)
		b = appendNum(b, v.Role)
		b = appendNum(b, v.Generation)
		b = appendFlag(b, v.OK)
		b = appendStr(b, v.Reason)
	case SessionStart:
		b = append(b, kindSessionStart)
		b = appendStr(b, v.TaskID)
		b = appendNum(b, v.Generation)
		b = appendTC(b, v.TC)
	case Chunk:
		b = append(b, kindChunk)
		b = appendStr(b, v.TaskID)
		b = appendNum(b, v.Generation)
		b = appendNum(b, v.Index)
		b = appendNum(b, v.NextStage)
		b = appendF64(b, v.SizeKBv)
		b = binary.AppendVarint(b, int64(v.Deadline))
		b = binary.AppendVarint(b, int64(v.Emitted))
	case SessionAbort:
		b = append(b, kindSessionAbort)
		b = appendStr(b, v.TaskID)
		b = appendNum(b, v.Generation)
		b = appendStr(b, v.Reason)
		b = appendFlag(b, v.Final)
		b = appendTC(b, v.TC)
	case SessionEnd:
		b = append(b, kindSessionEnd)
		b = appendSessionReport(b, v.Report)
		b = appendTC(b, v.TC)
	case GossipDigest:
		if !ascendingVersions(v.Versions) {
			return b, false
		}
		b = append(b, kindGossipDigest)
		b = appendRMRef(b, v.From)
		b = binary.AppendUvarint(b, uint64(len(v.Versions)))
		for _, dv := range v.Versions {
			b = appendNum(b, int(dv.Domain))
			b = binary.AppendUvarint(b, dv.Version)
		}
	case GossipSummaries:
		b = append(b, kindGossipSummaries)
		b = appendRMRef(b, v.From)
		b = binary.AppendUvarint(b, uint64(len(v.Summaries)))
		for _, s := range v.Summaries {
			b = appendDomainSummary(b, s)
		}
		b = binary.AppendUvarint(b, uint64(len(v.Want)))
		for _, d := range v.Want {
			b = appendNum(b, int(d))
		}
	case FindNode:
		b = append(b, kindFindNode)
		b = binary.AppendUvarint(b, v.RPC)
		b = append(b, v.Target[:]...)
		b = appendTC(b, v.TC)
	case FindValue:
		b = append(b, kindFindValue)
		b = binary.AppendUvarint(b, v.RPC)
		b = append(b, v.Key[:]...)
		b = appendTC(b, v.TC)
	case Store:
		b = append(b, kindStore)
		b = append(b, v.Key[:]...)
		b = appendProvider(b, v.Provider)
	case Nodes:
		b = append(b, kindNodes)
		b = binary.AppendUvarint(b, v.RPC)
		b = appendNodeIDs(b, v.IDs)
	case Providers:
		b = append(b, kindProviders)
		b = binary.AppendUvarint(b, v.RPC)
		b = binary.AppendUvarint(b, uint64(len(v.Values)))
		for _, p := range v.Values {
			b = appendProvider(b, p)
		}
		b = appendNodeIDs(b, v.IDs)
	default:
		return b, false
	}
	return b, true
}

// DecodeMessage decodes exactly one message produced by AppendMessage.
// Trailing bytes, truncation, unknown kinds and hostile length
// declarations all return an error; the function never panics on
// arbitrary input.
func DecodeMessage(b []byte) (env.Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("proto: codec: empty message")
	}
	d := &wireDecoder{b: b[1:]}
	var m env.Message
	switch b[0] {
	case kindJoin:
		m = Join{Info: d.peerInfo(), Hops: d.num("hops")}
	case kindJoinRedirect:
		m = JoinRedirect{Target: env.NodeID(d.num("target")), Reason: d.str("reason")}
	case kindJoinAccept:
		m = JoinAccept{
			Domain: DomainID(d.num("domain")),
			RM:     env.NodeID(d.num("rm")),
			Backup: env.NodeID(d.num("backup")),
			Peers:  d.nodeIDs(),
		}
	case kindBecomeRM:
		m = BecomeRM{NewDomain: DomainID(d.num("domain")), KnownRMs: d.rmRefs()}
	case kindLeave:
		m = Leave{}
	case kindHeartbeatReq:
		m = HeartbeatReq{Seq: d.uvarint("seq"), Backup: env.NodeID(d.num("backup"))}
	case kindHeartbeatAck:
		m = HeartbeatAck{Seq: d.uvarint("seq")}
	case kindProfileUpdate:
		m = ProfileUpdate{Report: d.report()}
	case kindBackupSync:
		m = BackupSync{State: d.domainState()}
	case kindTakeoverAnnounce:
		m = TakeoverAnnounce{
			Domain: DomainID(d.num("domain")),
			NewRM:  env.NodeID(d.num("rm")),
			Backup: env.NodeID(d.num("backup")),
		}
	case kindTaskSubmit:
		m = TaskSubmit{Spec: d.taskSpec(), Hops: d.num("hops"), TC: d.tc()}
	case kindTaskReject:
		m = TaskReject{TaskID: d.str("task"), Reason: d.str("reason"), TC: d.tc()}
	case kindGraphCompose:
		m = GraphCompose{Session: d.sessionDesc(), Role: d.num("role")}
	case kindComposeAck:
		m = ComposeAck{
			TaskID:     d.str("task"),
			Role:       d.num("role"),
			Generation: d.num("generation"),
			OK:         d.flag("ok"),
			Reason:     d.str("reason"),
		}
	case kindSessionStart:
		m = SessionStart{TaskID: d.str("task"), Generation: d.num("generation"), TC: d.tc()}
	case kindChunk:
		m = Chunk{
			TaskID:     d.str("task"),
			Generation: d.num("generation"),
			Index:      d.num("index"),
			NextStage:  d.num("next stage"),
			SizeKBv:    d.f64("size"),
			Deadline:   sim.Time(d.varint("deadline")),
			Emitted:    sim.Time(d.varint("emitted")),
		}
	case kindSessionAbort:
		m = SessionAbort{
			TaskID:     d.str("task"),
			Generation: d.num("generation"),
			Reason:     d.str("reason"),
			Final:      d.flag("final"),
			TC:         d.tc(),
		}
	case kindSessionEnd:
		m = SessionEnd{Report: d.sessionReport(), TC: d.tc()}
	case kindGossipDigest:
		m = GossipDigest{From: d.rmRef(), Versions: d.versions()}
	case kindGossipSummaries:
		g := GossipSummaries{From: d.rmRef()}
		if n := d.count("summaries"); n > 0 {
			sums := make([]DomainSummary, n)
			g.Summaries = make([]*DomainSummary, n)
			for i := range sums {
				sums[i] = d.domainSummary()
				g.Summaries[i] = &sums[i]
			}
		}
		if n := d.count("want"); n > 0 {
			g.Want = make([]DomainID, n)
			for i := range g.Want {
				g.Want[i] = DomainID(d.num("want domain"))
			}
		}
		m = g
	case kindFindNode:
		m = FindNode{RPC: d.uvarint("rpc"), Target: d.dhtKey(), TC: d.tc()}
	case kindFindValue:
		m = FindValue{RPC: d.uvarint("rpc"), Key: d.dhtKey(), TC: d.tc()}
	case kindStore:
		m = Store{Key: d.dhtKey(), Provider: d.provider()}
	case kindNodes:
		m = Nodes{RPC: d.uvarint("rpc"), IDs: d.nodeIDs()}
	case kindProviders:
		p := Providers{RPC: d.uvarint("rpc")}
		if n := d.count("providers"); n > 0 {
			p.Values = make([]DHTProvider, n)
			for i := range p.Values {
				p.Values[i] = d.provider()
			}
		}
		p.IDs = d.nodeIDs()
		m = p
	default:
		return nil, fmt.Errorf("proto: codec: unknown message kind %#x", b[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("proto: codec: %d trailing bytes after message kind %#x", len(d.b), b[0])
	}
	return m, nil
}

// --- encode helpers (append style, zero-alloc when b has capacity) ---

func appendNum(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBlob(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendNodeIDs(b []byte, ids []env.NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendNum(b, int(id))
	}
	return b
}

func appendTC(b []byte, tc TraceContext) []byte {
	b = binary.AppendUvarint(b, tc.Trace)
	return binary.AppendUvarint(b, tc.Parent)
}

func appendFormat(b []byte, f media.Format) []byte {
	b = appendStr(b, string(f.Codec))
	b = appendNum(b, f.Width)
	b = appendNum(b, f.Height)
	return appendNum(b, f.BitrateKbps)
}

func appendConstraint(b []byte, c media.Constraint) []byte {
	b = binary.AppendUvarint(b, uint64(len(c.Codecs)))
	for _, cc := range c.Codecs {
		b = appendStr(b, string(cc))
	}
	b = appendNum(b, c.MaxWidth)
	b = appendNum(b, c.MaxHeight)
	b = appendNum(b, c.MinBitrateKbps)
	return appendNum(b, c.MaxBitrateKbps)
}

func appendPeerInfo(b []byte, p PeerInfo) []byte {
	b = appendNum(b, int(p.ID))
	b = appendF64(b, p.SpeedWU)
	b = appendF64(b, p.BandwidthKbps)
	b = appendF64(b, p.UptimeSec)
	b = binary.AppendUvarint(b, uint64(len(p.Objects)))
	for _, o := range p.Objects {
		b = appendStr(b, o.Name)
		b = appendFormat(b, o.Format)
		b = binary.AppendUvarint(b, o.Hash)
		b = binary.AppendVarint(b, o.Bytes)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Services)))
	for _, s := range p.Services {
		b = appendFormat(b, s.From)
		b = appendFormat(b, s.To)
	}
	return b
}

func appendRMRef(b []byte, r RMRef) []byte {
	b = appendNum(b, int(r.Domain))
	return appendNum(b, int(r.RM))
}

func appendRMRefs(b []byte, rs []RMRef) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendRMRef(b, r)
	}
	return b
}

func appendTaskSpec(b []byte, s TaskSpec) []byte {
	b = appendStr(b, s.ID)
	b = appendNum(b, int(s.Origin))
	b = appendStr(b, s.ObjectName)
	b = appendConstraint(b, s.Constraint)
	b = binary.AppendVarint(b, s.DeadlineMicros)
	b = appendNum(b, s.Importance)
	b = appendF64(b, s.DurationSec)
	return appendF64(b, s.ChunkSec)
}

func appendSessionDesc(b []byte, s SessionDesc) []byte {
	b = appendStr(b, s.TaskID)
	b = appendNum(b, int(s.RM))
	b = appendNum(b, int(s.Origin))
	b = appendNum(b, int(s.SourcePeer))
	b = binary.AppendUvarint(b, uint64(len(s.Stages)))
	for _, st := range s.Stages {
		b = appendNum(b, int(st.Peer))
		b = appendStr(b, st.Service)
		b = appendF64(b, st.Work)
		b = appendNum(b, st.InBitrateKbps)
		b = appendNum(b, st.OutBitrateKbps)
	}
	b = appendStr(b, s.ObjectName)
	b = appendNum(b, s.SourceBitrateKbps)
	b = appendF64(b, s.ChunkSec)
	b = appendNum(b, s.NumChunks)
	b = binary.AppendVarint(b, int64(s.StartupDeadline))
	b = binary.AppendVarint(b, int64(s.PlaybackBase))
	b = appendNum(b, s.StartChunk)
	b = appendNum(b, s.Importance)
	b = appendNum(b, s.Generation)
	return appendTC(b, s.TC)
}

func appendSessionReport(b []byte, r SessionReport) []byte {
	b = appendStr(b, r.TaskID)
	b = appendNum(b, r.Chunks)
	b = appendNum(b, r.Received)
	b = appendNum(b, r.Missed)
	b = binary.AppendVarint(b, r.StartupMicros)
	b = appendF64(b, r.MeanLatencyMicros)
	b = appendNum(b, r.Repaired)
	b = binary.AppendVarint(b, r.FinishedMicros)
	return appendNum(b, r.Hops)
}

func appendDomainState(b []byte, s DomainState) []byte {
	b = appendNum(b, int(s.Domain))
	b = binary.AppendUvarint(b, uint64(len(s.Peers)))
	for _, p := range s.Peers {
		b = appendPeerInfo(b, p.Info)
		b = appendF64(b, p.Load)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Sessions)))
	for _, sd := range s.Sessions {
		b = appendSessionDesc(b, sd)
	}
	b = appendRMRefs(b, s.KnownRMs)
	return binary.AppendUvarint(b, s.Version)
}

func appendDomainSummary(b []byte, s *DomainSummary) []byte {
	b = appendNum(b, int(s.Domain))
	b = appendNum(b, int(s.RM))
	b = binary.AppendUvarint(b, s.Version)
	b = appendNum(b, s.NumPeers)
	b = appendF64(b, s.AvgUtil)
	b = appendBlob(b, s.ObjectBloom)
	b = appendBlob(b, s.ServiceBloom)
	b = binary.AppendUvarint(b, s.BloomM)
	return binary.AppendUvarint(b, uint64(s.BloomK))
}

func appendProvider(b []byte, p DHTProvider) []byte {
	b = appendNum(b, int(p.Domain))
	b = appendNum(b, int(p.RM))
	b = appendNum(b, p.NumPeers)
	return appendF64(b, p.AvgUtil)
}

// appendReport encodes a profiler snapshot.
func appendReport(b []byte, r profiler.Report) []byte {
	b = appendNum(b, r.Peer)
	b = binary.AppendVarint(b, int64(r.At))
	b = appendF64(b, r.Load)
	b = appendF64(b, r.Utilization)
	return appendF64(b, r.BandwidthKbps)
}

// ascendingVersions reports whether a digest's versions are in their
// canonical order: strictly ascending by domain, each domain once.
func ascendingVersions(vs []DomainVersion) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i].Domain <= vs[i-1].Domain {
			return false
		}
	}
	return true
}

// --- decode side ---

// wireDecoder consumes an encoded message front to back, latching the
// first error: after a failure every accessor returns the zero value,
// so struct literals can decode field-by-field without per-field error
// plumbing.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("proto: codec: truncated or invalid %s", what)
	}
	d.b = nil
}

func (d *wireDecoder) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) varint(what string) int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) num(what string) int { return int(d.varint(what)) }

func (d *wireDecoder) f64(what string) float64 {
	if len(d.b) < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *wireDecoder) flag(what string) bool {
	if len(d.b) < 1 || d.b[0] > 1 {
		d.fail(what)
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// count reads a length or element count and rejects any declaration
// larger than the bytes that remain — every element costs at least one
// byte, so a hostile count can never force an oversized allocation.
func (d *wireDecoder) count(what string) int {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail(what + " count")
		return 0
	}
	return int(n)
}

func (d *wireDecoder) str(what string) string {
	n := d.count(what)
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *wireDecoder) blob(what string) []byte {
	n := d.count(what)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b)
	d.b = d.b[n:]
	return out
}

func (d *wireDecoder) nodeIDs() []env.NodeID {
	n := d.count("node ids")
	if n == 0 {
		return nil
	}
	out := make([]env.NodeID, n)
	for i := range out {
		out[i] = env.NodeID(d.num("node id"))
	}
	return out
}

func (d *wireDecoder) tc() TraceContext {
	return TraceContext{Trace: d.uvarint("trace"), Parent: d.uvarint("parent")}
}

func (d *wireDecoder) format() media.Format {
	return media.Format{
		Codec:       media.Codec(d.str("codec")),
		Width:       d.num("width"),
		Height:      d.num("height"),
		BitrateKbps: d.num("bitrate"),
	}
}

func (d *wireDecoder) constraint() media.Constraint {
	var c media.Constraint
	if n := d.count("codecs"); n > 0 {
		c.Codecs = make([]media.Codec, n)
		for i := range c.Codecs {
			c.Codecs[i] = media.Codec(d.str("codec"))
		}
	}
	c.MaxWidth = d.num("max width")
	c.MaxHeight = d.num("max height")
	c.MinBitrateKbps = d.num("min bitrate")
	c.MaxBitrateKbps = d.num("max bitrate")
	return c
}

func (d *wireDecoder) peerInfo() PeerInfo {
	p := PeerInfo{
		ID:            env.NodeID(d.num("peer id")),
		SpeedWU:       d.f64("speed"),
		BandwidthKbps: d.f64("bandwidth"),
		UptimeSec:     d.f64("uptime"),
	}
	if n := d.count("objects"); n > 0 {
		p.Objects = make([]media.Object, n)
		for i := range p.Objects {
			p.Objects[i] = media.Object{
				Name:   d.str("object name"),
				Format: d.format(),
				Hash:   d.uvarint("object hash"),
				Bytes:  d.varint("object bytes"),
			}
		}
	}
	if n := d.count("services"); n > 0 {
		p.Services = make([]media.Transcoder, n)
		for i := range p.Services {
			p.Services[i] = media.Transcoder{From: d.format(), To: d.format()}
		}
	}
	return p
}

func (d *wireDecoder) rmRef() RMRef {
	return RMRef{Domain: DomainID(d.num("domain")), RM: env.NodeID(d.num("rm"))}
}

func (d *wireDecoder) rmRefs() []RMRef {
	n := d.count("rm refs")
	if n == 0 {
		return nil
	}
	out := make([]RMRef, n)
	for i := range out {
		out[i] = d.rmRef()
	}
	return out
}

func (d *wireDecoder) taskSpec() TaskSpec {
	return TaskSpec{
		ID:             d.str("task id"),
		Origin:         env.NodeID(d.num("origin")),
		ObjectName:     d.str("object name"),
		Constraint:     d.constraint(),
		DeadlineMicros: d.varint("deadline"),
		Importance:     d.num("importance"),
		DurationSec:    d.f64("duration"),
		ChunkSec:       d.f64("chunk sec"),
	}
}

func (d *wireDecoder) sessionDesc() SessionDesc {
	s := SessionDesc{
		TaskID:     d.str("task id"),
		RM:         env.NodeID(d.num("rm")),
		Origin:     env.NodeID(d.num("origin")),
		SourcePeer: env.NodeID(d.num("source")),
	}
	if n := d.count("stages"); n > 0 {
		s.Stages = make([]StageDesc, n)
		for i := range s.Stages {
			s.Stages[i] = StageDesc{
				Peer:           env.NodeID(d.num("stage peer")),
				Service:        d.str("stage service"),
				Work:           d.f64("stage work"),
				InBitrateKbps:  d.num("stage in bitrate"),
				OutBitrateKbps: d.num("stage out bitrate"),
			}
		}
	}
	s.ObjectName = d.str("object name")
	s.SourceBitrateKbps = d.num("source bitrate")
	s.ChunkSec = d.f64("chunk sec")
	s.NumChunks = d.num("num chunks")
	s.StartupDeadline = sim.Time(d.varint("startup deadline"))
	s.PlaybackBase = sim.Time(d.varint("playback base"))
	s.StartChunk = d.num("start chunk")
	s.Importance = d.num("importance")
	s.Generation = d.num("generation")
	s.TC = d.tc()
	return s
}

func (d *wireDecoder) sessionReport() SessionReport {
	return SessionReport{
		TaskID:            d.str("task id"),
		Chunks:            d.num("chunks"),
		Received:          d.num("received"),
		Missed:            d.num("missed"),
		StartupMicros:     d.varint("startup"),
		MeanLatencyMicros: d.f64("mean latency"),
		Repaired:          d.num("repaired"),
		FinishedMicros:    d.varint("finished"),
		Hops:              d.num("hops"),
	}
}

func (d *wireDecoder) domainState() DomainState {
	s := DomainState{Domain: DomainID(d.num("domain"))}
	if n := d.count("peer snapshots"); n > 0 {
		s.Peers = make([]PeerSnapshot, n)
		for i := range s.Peers {
			s.Peers[i] = PeerSnapshot{Info: d.peerInfo(), Load: d.f64("load")}
		}
	}
	if n := d.count("sessions"); n > 0 {
		s.Sessions = make([]SessionDesc, n)
		for i := range s.Sessions {
			s.Sessions[i] = d.sessionDesc()
		}
	}
	s.KnownRMs = d.rmRefs()
	s.Version = d.uvarint("version")
	return s
}

func (d *wireDecoder) domainSummary() DomainSummary {
	return DomainSummary{
		Domain:       DomainID(d.num("domain")),
		RM:           env.NodeID(d.num("rm")),
		Version:      d.uvarint("version"),
		NumPeers:     d.num("num peers"),
		AvgUtil:      d.f64("avg util"),
		ObjectBloom:  d.blob("object bloom"),
		ServiceBloom: d.blob("service bloom"),
		BloomM:       d.uvarint("bloom m"),
		BloomK:       uint32(d.uvarint("bloom k")),
	}
}

func (d *wireDecoder) report() profiler.Report {
	return profiler.Report{
		Peer:          d.num("peer"),
		At:            sim.Time(d.varint("at")),
		Load:          d.f64("load"),
		Utilization:   d.f64("utilization"),
		BandwidthKbps: d.f64("bandwidth"),
	}
}

// dhtKey reads the fixed 20-byte key.
func (d *wireDecoder) dhtKey() DHTKey {
	var k DHTKey
	if len(d.b) < len(k) {
		d.fail("dht key")
		return k
	}
	copy(k[:], d.b)
	d.b = d.b[len(k):]
	return k
}

func (d *wireDecoder) provider() DHTProvider {
	return DHTProvider{
		Domain:   DomainID(d.num("provider domain")),
		RM:       env.NodeID(d.num("provider rm")),
		NumPeers: d.num("provider peers"),
		AvgUtil:  d.f64("provider util"),
	}
}

// versions decodes a digest's version list, rejecting any that is not
// strictly ascending by domain (see ascendingVersions).
func (d *wireDecoder) versions() []DomainVersion {
	n := d.count("versions")
	if n == 0 {
		return nil
	}
	out := make([]DomainVersion, n)
	for i := range out {
		out[i] = DomainVersion{Domain: DomainID(d.num("version domain")), Version: d.uvarint("version")}
	}
	if d.err == nil && !ascendingVersions(out) {
		d.fail("version order")
	}
	return out
}
