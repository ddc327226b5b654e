package p2prm

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/proto"
	"repro/internal/replay"
	"repro/internal/trace"
)

// ReplayResult is what a replayed recording produced: event counts, the
// first divergence if any, and final per-node state digests.
type ReplayResult = replay.Result

// ReplayDivergence pinpoints the first point where a replay disagreed
// with the recording (node, logical time, event index).
type ReplayDivergence = replay.Divergence

// TraceDiff is the first trace event that differed between the recorded
// and the replayed run.
type TraceDiff = replay.TraceDiff

// ReplayRecording re-executes a flight-recorder log (written by
// LiveOptions.RecordDir / Live.Record) under the deterministic simulation
// scheduler. Peers are reconstructed from their recorded init blobs and
// driven with exactly the recorded inputs — deliveries, timer firings,
// submissions, rng seeds — at their recorded virtual times; outbound
// sends, timer registrations and state digests are compared against the
// log as they happen.
//
// The replayed run's trace is written to dir/replay_trace.jsonl. When
// the recording carries a trace (dir/trace.jsonl, written by StopRecord)
// the two are compared and the first difference returned; a recording of
// a clean run replays to an identical trace stream.
//
// cfg must match the recorded run's protocol configuration; Nanotime is
// forced nil so allocator costing derives from the virtual clock exactly
// as it did while recording.
func ReplayRecording(cfg Config, dir string) (*ReplayResult, *TraceDiff, error) {
	cfg.Nanotime = nil
	lg, err := replay.ReadLogDir(dir)
	if err != nil {
		return nil, nil, err
	}
	tracer := trace.New()
	meta, err := replay.ReadMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	// Adopt the recorded run's tracer seed so replayed span IDs match
	// the recorded trace byte for byte (zero for old recordings, which
	// is also the unseeded default).
	tracer.SetSeed(meta.TraceSeed)
	events := &core.Events{}
	events.AttachTracer(tracer)
	res, err := replay.Replay(lg, replay.Options{
		Factory: func(id env.NodeID, init []byte) (env.Actor, error) {
			return core.NewFromReplayInit(cfg, init, events)
		},
		Call: func(a env.Actor, name string, arg []byte) error {
			p, ok := a.(*core.Peer)
			if !ok {
				return fmt.Errorf("call %q on non-peer actor %T", name, a)
			}
			switch name {
			case "submit":
				m, err := proto.DecodeMessage(arg)
				if err != nil {
					return fmt.Errorf("submit arg: %w", err)
				}
				ts, ok := m.(proto.TaskSubmit)
				if !ok {
					return fmt.Errorf("submit arg is a %T, want proto.TaskSubmit", m)
				}
				p.SubmitTask(ts.Spec)
				return nil
			default:
				return fmt.Errorf("unknown call %q", name)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tracer.WriteFile(filepath.Join(dir, replay.ReplayTraceFile)); err != nil {
		return res, nil, err
	}
	recPath := filepath.Join(dir, replay.TraceFile)
	f, err := os.Open(recPath)
	if os.IsNotExist(err) {
		return res, nil, nil // no recorded trace (mid-run recording): nothing to compare
	}
	if err != nil {
		return res, nil, err
	}
	defer f.Close()
	recorded, err := trace.ReadJSONL(f)
	if err != nil {
		return res, nil, fmt.Errorf("replay: %s: %w", recPath, err)
	}
	diff, err := replay.CompareTraces(recorded, tracer.Snapshot())
	if err != nil {
		return res, nil, err
	}
	return res, diff, nil
}
