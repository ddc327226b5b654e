// Package proto defines the wire messages exchanged by peers and Resource
// Managers (§4). The same message structs travel over the simulated
// network (by reference) and, encoded by this package's codec
// (codec.go), over the live TCP transport and into the flight
// recorder's log.
package proto

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// DomainID identifies a domain. The bootstrap domain is 0; domains created
// by promoting a qualified newcomer use the new RM's NodeID, which keeps
// IDs globally unique without coordination.
type DomainID int

// NoDomain marks a peer that has not joined yet.
const NoDomain DomainID = -1

// PeerInfo is a peer's self-description presented at join time (§3.1
// items 2-6: identity, capacity, objects, services).
type PeerInfo struct {
	ID            env.NodeID
	SpeedWU       float64 // processing power, work units/s
	BandwidthKbps float64 // access link capacity
	UptimeSec     float64 // historical uptime (qualification input, §4.1)
	Objects       []media.Object
	Services      []media.Transcoder
}

// QualifyThresholds are the §4.1 requirements for becoming a Resource
// Manager: "i) Sufficient bandwidth, ii) Sufficient processing power,
// iii) Sufficient uptime".
type QualifyThresholds struct {
	MinSpeedWU       float64
	MinBandwidthKbps float64
	MinUptimeSec     float64
}

// Qualifies reports whether the peer meets all three requirements.
func (p PeerInfo) Qualifies(q QualifyThresholds) bool {
	return p.SpeedWU >= q.MinSpeedWU &&
		p.BandwidthKbps >= q.MinBandwidthKbps &&
		p.UptimeSec >= q.MinUptimeSec
}

// Score ranks qualified peers for the Resource-Manager eligibility list
// (§4.1: "according to how affluent a peer is in those resources, it is
// assigned a score"). Weights normalize the three resources to comparable
// magnitudes.
func (p PeerInfo) Score() float64 {
	return p.SpeedWU + p.BandwidthKbps/1000 + p.UptimeSec/3600
}

// --- Membership (§4.1) ---

// Join asks the receiver to admit the sender to its domain. Sent to any
// known node; non-RM receivers redirect to their RM (the Gnutella-0.6
// ultrapeer negotiation analogue). Hops counts redirects followed so far;
// a full RM admits past its cap rather than bounce a joiner forever.
type Join struct {
	Info PeerInfo
	Hops int
}

// JoinRedirect points the joiner at another node to try.
type JoinRedirect struct {
	Target env.NodeID
	Reason string
}

// JoinAccept admits the joiner into the RM's domain.
type JoinAccept struct {
	Domain DomainID
	RM     env.NodeID
	Backup env.NodeID
	// Peers lists current domain members so the joiner has fallback
	// contacts if both RM and backup vanish.
	Peers []env.NodeID
}

// BecomeRM tells a qualified joiner that the domain is full and it should
// found a new domain as its Resource Manager.
type BecomeRM struct {
	NewDomain DomainID
	KnownRMs  []RMRef
}

// Leave is the graceful-departure notice a peer sends its RM.
type Leave struct{}

// HeartbeatReq is the RM's periodic liveness probe. It carries the
// current backup so every member always knows who takes over (§4.1).
type HeartbeatReq struct {
	Seq    uint64
	Backup env.NodeID
}

// HeartbeatAck answers a probe.
type HeartbeatAck struct{ Seq uint64 }

// ProfileUpdate carries a profiler snapshot to the RM (§4.4 intra-domain
// propagation).
type ProfileUpdate struct{ Report profiler.Report }

// --- Backup and failover (§4.1) ---

// RMRef names a domain's Resource Manager.
type RMRef struct {
	Domain DomainID
	RM     env.NodeID
}

// BackupSync replicates the RM state to the backup RM ("keeping an
// up-to-date copy of all the information the Resource Manager stores").
type BackupSync struct{ State DomainState }

// DomainState is the replicated RM state.
type DomainState struct {
	Domain   DomainID
	Peers    []PeerSnapshot
	Sessions []SessionDesc
	KnownRMs []RMRef
	Version  uint64
}

// PeerSnapshot is one peer's record inside DomainState.
type PeerSnapshot struct {
	Info PeerInfo
	Load float64
}

// TakeoverAnnounce is broadcast by the backup when it assumes the RM role
// after a failure, naming the next backup.
type TakeoverAnnounce struct {
	Domain DomainID
	NewRM  env.NodeID
	Backup env.NodeID
}

// --- Trace-context propagation ---

// TraceContext carries a task's causal trace identity across the wire so
// spans recorded by different processes stitch into one async track when
// traces are merged (internal/trace derives the same ids from equal
// seeds; the propagated context makes stitching robust even when seeds
// diverge). Trace is the task's session span id; Parent references the
// phase of the sender that caused this message (trace.PhaseRef). The
// zero value means "untraced" and costs two bytes on the wire.
type TraceContext struct {
	Trace  uint64 // session span id (0 = untraced)
	Parent uint64 // causally preceding phase ref (0 = root)
}

// --- Task submission and sessions (§4.3) ---

// TaskSpec is a user query: "a peer might ask for a media object by name,
// also specifying a set of acceptable bitrates, resolutions and codecs".
type TaskSpec struct {
	ID         string
	Origin     env.NodeID // requesting peer; receives the stream
	ObjectName string
	Constraint media.Constraint
	// DeadlineMicros is the startup deadline: the stream's first chunk
	// must reach the origin within this interval (Deadline_t, §3.3).
	DeadlineMicros int64
	Importance     int
	// DurationSec bounds the session length (0 = play the whole object).
	DurationSec float64
	// ChunkSec is the media seconds carried per pipeline chunk.
	ChunkSec float64
}

// TaskSubmit submits or forwards a task query to a Resource Manager.
type TaskSubmit struct {
	Spec TaskSpec
	Hops int // inter-domain redirects so far
	TC   TraceContext
}

// TaskReject reports that no allocation satisfying the QoS exists (§4.3).
type TaskReject struct {
	TaskID string
	Reason string
	TC     TraceContext
}

// StageDesc is one transcoding stage of a composed session.
type StageDesc struct {
	Peer           env.NodeID
	Service        string
	Work           float64 // work units per media-second
	InBitrateKbps  int     // bitrate of the stream arriving at this stage
	OutBitrateKbps int
}

// SessionDesc fully describes a composed streaming session: the concrete
// service graph G_s plus streaming parameters.
type SessionDesc struct {
	TaskID     string
	RM         env.NodeID // allocating Resource Manager
	Origin     env.NodeID // sink
	SourcePeer env.NodeID // object holder
	Stages     []StageDesc
	ObjectName string
	// SourceBitrateKbps is the object's native bitrate (first hop size).
	SourceBitrateKbps int
	ChunkSec          float64
	NumChunks         int
	// StartupDeadline is the relative startup budget; the sink's playback
	// clock starts this long after the session starts.
	StartupDeadline sim.Time
	// PlaybackBase is the absolute deadline of chunk 0; chunk i is due at
	// PlaybackBase + i·ChunkSec. It is fixed at admission so repairs do
	// not move the playback clock.
	PlaybackBase sim.Time
	// StartChunk is where emission (re)starts: 0 initially, the estimated
	// playback position after a repair.
	StartChunk int
	Importance int
	// Generation increments on each repair/migration of the same task so
	// stale chunks from a torn-down pipeline can be discarded.
	Generation int
	// TC is the task's trace context, fixed at allocation. It rides with
	// the session wherever it goes — graph composition, backup
	// replication, failover re-registration — so every process touching
	// the session records spans under the same id.
	TC TraceContext
}

// PipelinePeers returns source, stage peers, sink in order.
func (s SessionDesc) PipelinePeers() []env.NodeID {
	out := []env.NodeID{s.SourcePeer}
	for _, st := range s.Stages {
		out = append(out, st.Peer)
	}
	return append(out, s.Origin)
}

// UsesPeer reports whether the session's pipeline includes the peer.
func (s SessionDesc) UsesPeer(id env.NodeID) bool {
	for _, p := range s.PipelinePeers() {
		if p == id {
			return true
		}
	}
	return false
}

// GraphCompose distributes the session to one participant (§4.3: "graph
// composition messages are sent to the nodes that will participate in the
// streaming graph").
type GraphCompose struct {
	Session SessionDesc
	// Role is the participant's position: RoleSource, RoleSink, or the
	// stage index (0-based) for transcoding stages.
	Role int
}

// Participant roles in GraphCompose.
const (
	RoleSource = -1
	RoleSink   = -2
)

// ComposeAck answers a GraphCompose. OK=false means the participant
// refused the role (e.g. its Connection Manager is at capacity, §2) and
// the RM must abandon or re-plan the session.
type ComposeAck struct {
	TaskID     string
	Role       int
	Generation int
	OK         bool
	Reason     string
}

// SessionStart tells the source to begin streaming.
type SessionStart struct {
	TaskID     string
	Generation int
	TC         TraceContext
}

// Chunk is one media chunk traversing the pipeline. NextStage addresses
// the stage that must process it next (len(Stages) means the sink).
type Chunk struct {
	TaskID     string
	Generation int
	Index      int
	NextStage  int
	SizeKBv    float64
	// Deadline is the absolute playback deadline at the sink.
	Deadline sim.Time
	// Emitted is when the source sent it (for end-to-end latency).
	Emitted sim.Time
}

// SizeKB implements env.Sized: chunk transfers consume bandwidth.
func (c Chunk) SizeKB() float64 { return c.SizeKBv }

// SessionAbort tears a session instance down at one participant (repair,
// migration, failure, preemption). Final=true means the task itself is
// over: the sink finalizes and reports whatever arrived. Final=false
// (superseded generation, or a session cancelled before streaming)
// discards silently.
type SessionAbort struct {
	TaskID     string
	Generation int
	Reason     string
	Final      bool
	TC         TraceContext
}

// SessionReport is the sink's account of a finished session.
type SessionReport struct {
	TaskID            string
	Chunks            int
	Received          int
	Missed            int // late or never-arrived chunks
	StartupMicros     int64
	MeanLatencyMicros float64
	Repaired          int // pipeline generations observed beyond the first
	// FinishedMicros is the sink-side finalization time (its local clock),
	// letting experiments bucket sessions into phases.
	FinishedMicros int64
	// Hops is the number of transcoding stages in the final pipeline.
	Hops int
}

// SessionEnd carries the report from the sink to the allocating RM.
type SessionEnd struct {
	Report SessionReport
	TC     TraceContext
}

// --- Inter-domain gossip (§3.1, §4.4) ---

// DomainSummary is the lazily propagated per-domain summary: Bloom
// filters of available objects and services plus coarse load.
//
// Summaries travel and are kept by pointer: a gossip reply carries the
// responder's installed pointers and the receiver installs them as they
// are, so one value may be held by many RMs and messages at once.
// Nothing writes a DomainSummary after it is sent or installed; a
// changed summary is a new value.
type DomainSummary struct {
	Domain       DomainID
	RM           env.NodeID
	Version      uint64
	NumPeers     int
	AvgUtil      float64
	ObjectBloom  []byte
	ServiceBloom []byte
	BloomM       uint64
	BloomK       uint32
}

// DomainVersion is one digest entry: the version of a domain's summary
// that the digest's sender holds.
type DomainVersion struct {
	Domain  DomainID
	Version uint64
}

// GossipDigest opens an anti-entropy round: the versions the sender
// holds, strictly ascending by domain. The codec encodes no other order.
type GossipDigest struct {
	From     RMRef
	Versions []DomainVersion
}

// GossipSummaries answers with summaries the digest shows as stale and
// asks for those the sender lacks.
type GossipSummaries struct {
	From      RMRef
	Summaries []*DomainSummary // ascending by domain from an honest sender
	// Want lists domains the responder wants newer versions of; the
	// receiver replies once more with just those (push-pull completion).
	Want []DomainID
}

// --- Structured discovery (DHT) ---

// DHTKey is a 160-bit key in the XOR metric space. Node IDs are derived
// locally and deterministically from env.NodeID (internal/dht.NodeKey),
// so contacts travel as bare NodeIDs; only lookup targets and provider
// keys appear on the wire.
type DHTKey [20]byte

// DHTProvider is one provider record: a domain that can serve a key (an
// object or service catalog entry), carrying the redirect target plus
// the load signals the RM uses to rank candidates — the structured
// counterpart of a DomainSummary row.
type DHTProvider struct {
	Domain   DomainID
	RM       env.NodeID
	NumPeers int
	AvgUtil  float64
}

// FindNode asks a DHT node for its closest known contacts to Target.
// RPC matches the response to the outstanding request; TC propagates the
// causal trace of the task (if any) that triggered the lookup.
type FindNode struct {
	RPC    uint64
	Target DHTKey
	TC     TraceContext
}

// FindValue asks for provider records under Key, falling back to the
// closest contacts when the receiver has none (classic Kademlia
// either/or, collapsed into the Providers response).
type FindValue struct {
	RPC uint64
	Key DHTKey
	TC  TraceContext
}

// Store asks the receiver to hold a provider record under Key until the
// receiver-side TTL expires; publishers refresh by republishing.
type Store struct {
	Key      DHTKey
	Provider DHTProvider
}

// Nodes answers a FindNode with the receiver's closest contacts.
type Nodes struct {
	RPC uint64
	IDs []env.NodeID
}

// Providers answers a FindValue: any provider records held under the
// key plus the closest contacts, so the iterative lookup can both
// collect values and keep converging.
type Providers struct {
	RPC    uint64
	Values []DHTProvider
	IDs    []env.NodeID
}

// RegisterMessages does nothing: the codec (codec.go) encodes every
// message in this package without registration. It remains so existing
// callers keep compiling.
func RegisterMessages() {}

// String implements fmt.Stringer for log readability.
func (s SessionDesc) String() string {
	return fmt.Sprintf("session(%s src=n%d stages=%d sink=n%d chunks=%d gen=%d)",
		s.TaskID, s.SourcePeer, len(s.Stages), s.Origin, s.NumChunks, s.Generation)
}
