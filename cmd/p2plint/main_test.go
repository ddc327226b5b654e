package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// planted lists, per finding the testdata/planted module must produce,
// the file:line:col: analyzer: prefix of its line: one violation per
// analyzer, both edges of one lock-order cycle, one stale //lint:ignore
// directive, and one whose misspelt analyzer name suppresses nothing.
var planted = []string{
	"internal/core/core.go:13:9: clockcheck: time.Now reads wall clock",
	"internal/core/core.go:18:2: maporder: range over map m",
	"internal/core/core.go:26:13: metriclabel: metric name argument",
	"internal/core/core.go:31:2: clockcheck: unused //lint:ignore clockcheck directive",
	"internal/core/core.go:41:9: lockfield: store.n is guarded by mu",
	"internal/core/core.go:48:2: lockorder: lock-order cycle",
	"internal/core/core.go:55:2: lockorder: lock-order cycle",
	"internal/core/core.go:61:2: p2plint: //lint:ignore clockchek names no known analyzer",
	"internal/core/core.go:62:9: clockcheck: time.Now reads wall clock",
	"internal/live/live.go:8:9: replaysafe: time.Now on recorded delivery path Deliver",
	"internal/trace/trace.go:8:18: eventguard: exported method Tracer.Instant",
}

func TestPlantedViolations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"testdata/planted"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(planted) {
		t.Errorf("got %d findings, want %d:\n%s", len(lines), len(planted), stdout.String())
	}
	for i, want := range planted {
		if i >= len(lines) || !strings.HasPrefix(lines[i], want) {
			t.Errorf("finding %d: want prefix %q in:\n%s", i, want, stdout.String())
		}
	}
	// A cycle edge carries its acquisition path: the step at its own line.
	for _, l := range lines {
		if at, _, ok := strings.Cut(l, ": lockorder: "); ok {
			step := strings.TrimSuffix(at, ":2") + ": "
			if !strings.Contains(l, "; path: "+step) {
				t.Errorf("cycle finding lacks its path %q...:\n%s", step, l)
			}
		}
	}

	stdout.Reset()
	if code := run([]string{"-json", "testdata/planted"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-json exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var findings []struct{ File, Analyzer string }
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output: %v\n%s", err, stdout.String())
	}
	if len(findings) != len(planted) {
		t.Errorf("-json: got %d findings, want %d", len(findings), len(planted))
	}
}

// TestAbsoluteRootTrimmed runs the gate on the planted module by its
// absolute path: every file, and every position a message quotes, is
// relative to the root, so the findings diff cleanly between checkouts.
func TestAbsoluteRootTrimmed(t *testing.T) {
	root, err := filepath.Abs("testdata/planted")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", root}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), root) {
		t.Errorf("findings quote the root %s:\n%s", root, stdout.String())
	}
	var findings []struct{ File, Analyzer, Message string }
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output: %v\n%s", err, stdout.String())
	}
	if len(findings) != len(planted) {
		t.Errorf("got %d findings, want %d", len(findings), len(planted))
	}
	for _, f := range findings {
		if f.Analyzer == "maporder" && !strings.Contains(f.Message, " at internal/core/core.go:19:3)") {
			t.Errorf("maporder message does not name the escaping statement by its relative position: %s", f.Message)
		}
	}
}

// TestTreeClean runs the gate over the real module: no findings, and
// the lock order matches the committed ORDER.golden.
func TestTreeClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0:\n%s%s", code, stdout.String(), stderr.String())
	}
}
