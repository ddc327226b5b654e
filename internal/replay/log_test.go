package replay

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/proto"
)

// writeSampleLog records one event of every kind and closes the log.
func writeSampleLog(t *testing.T, dir string) *Recorder {
	t.Helper()
	rec, err := NewRecorder(dir)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	rec.RecordStart(1, 0, 42, []byte("init-blob"))
	rec.RecordDeliver(1, 2, 500, proto.HeartbeatReq{Seq: 7})
	rec.RecordSend(1, 2, 500, proto.HeartbeatAck{Seq: 8})
	rec.RecordTimer(1, 1000, 1, 1000)
	rec.RecordCall(1, 1200, "submit", []byte("arg"))
	rec.RecordFault(2, 1, 1300, true, false, 250)
	rec.RecordDigest(1, 1400, 0xdead)
	rec.RecordKill(2, 1500, 0, false)
	rec.RecordStop(1, 2000, 0xbeef, true)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rec
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := writeSampleLog(t, dir)

	events, bytes_, dropped := rec.Counters()
	if events != 9 || dropped != 0 || bytes_ == 0 {
		t.Fatalf("counters = (%d, %d, %d), want (9, >0, 0)", events, bytes_, dropped)
	}

	lg, err := ReadLogDir(dir)
	if err != nil {
		t.Fatalf("ReadLogDir: %v", err)
	}
	if lg.Truncated {
		t.Fatal("clean log reported as truncated")
	}
	if len(lg.Events) != 9 {
		t.Fatalf("got %d events, want 9", len(lg.Events))
	}

	e := lg.Events[0]
	if e.Kind != KStart || e.Node != 1 || e.Aux != 42 || string(e.Data) != "init-blob" {
		t.Fatalf("start event mismatch: %+v", e)
	}
	e = lg.Events[1]
	if e.Kind != KDeliver || e.Peer != 2 || e.Time != 500 || e.Name != MessageType(proto.HeartbeatReq{}) {
		t.Fatalf("deliver event mismatch: %+v", e)
	}
	m, err := e.Message()
	if err != nil {
		t.Fatalf("decoding payload: %v", err)
	}
	if p, ok := m.(proto.HeartbeatReq); !ok || p.Seq != 7 || e.Aux != auxCodec {
		t.Fatalf("decoded payload = %#v (aux %d), want HeartbeatReq{Seq: 7} (aux %d)", m, e.Aux, auxCodec)
	}
	e = lg.Events[3]
	if e.Kind != KTimer || e.Aux != 1 || e.Aux2 != 1000 {
		t.Fatalf("timer event mismatch: %+v", e)
	}
	e = lg.Events[5]
	if e.Kind != KFault || e.Node != 2 || e.Peer != 1 || e.Aux != 1 || e.Aux2 != 250 {
		t.Fatalf("fault event mismatch: %+v", e)
	}
	e = lg.Events[8]
	if e.Kind != KStop || e.Aux != 0xbeef || e.Aux2 != 1 {
		t.Fatalf("stop event mismatch: %+v", e)
	}

	meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if !bytes.Contains(meta, []byte(`"events": 9`)) {
		t.Fatalf("meta.json missing event count: %s", meta)
	}
}

func TestLogCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	writeSampleLog(t, dir)

	path := filepath.Join(dir, EventsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the third frame: walk two frames, then
	// corrupt past the next header.
	off := len(logMagic)
	for i := 0; i < 2; i++ {
		length := int(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		off += 8 + length
	}
	raw[off+8+2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = ReadLogFile(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CorruptError", err)
	}
	if ce.Index != 2 {
		t.Fatalf("corrupt frame index = %d, want 2", ce.Index)
	}
}

func TestLogTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	writeSampleLog(t, dir)

	path := filepath.Join(dir, EventsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final frame.
	lg, err := ReadLogFile(path)
	if err != nil || len(lg.Events) != 9 {
		t.Fatalf("precondition: %v, %d events", err, len(lg.Events))
	}
	truncated := raw[:len(raw)-5]
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	lg, err = ReadLogFile(path)
	if err != nil {
		t.Fatalf("truncated log must read cleanly, got %v", err)
	}
	if !lg.Truncated {
		t.Fatal("Truncated not set")
	}
	if len(lg.Events) != 8 {
		t.Fatalf("got %d events from truncated log, want the 8 complete ones", len(lg.Events))
	}
}

func TestLogBadMagic(t *testing.T) {
	_, err := ReadLog(bytes.NewReader([]byte("NOTALOG0xxxx")))
	if err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestCloseIdempotentAndLateEmit(t *testing.T) {
	dir := t.TempDir()
	rec, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec.RecordDigest(1, 0, 1)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Emits after Close must not panic or block; they are counted as
	// dropped, never written.
	for i := 0; i < 100; i++ {
		rec.RecordDigest(1, int64(i), 2)
	}
	if events, _, dropped := rec.Counters(); events != 1 || dropped != 100 {
		t.Fatalf("events=%d dropped=%d, want 1 and 100", events, dropped)
	}
	lg, err := ReadLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(lg.Events))
	}
}
