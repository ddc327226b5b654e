package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed42.golden from the sequential quick suite")

// goldenPath holds the quick suite's seed-42 tables: the byte-identity
// oracle a refactor of anything the experiments drive must keep.
var goldenPath = filepath.Join("testdata", "quick-seed42.golden")

// TestAllParallelMatchesSequential is the determinism contract of the
// parallel runner: on seed 42 the tables produced by 8 workers must be
// byte-identical to the sequential suite (run under -race via make race /
// CI). Experiments share no mutable state — each derives every rng stream
// and cluster from its Options — so scheduling cannot perturb results.
// The sequential tables must also equal the committed golden; after an
// intended behaviour change, regenerate it with
//
//	go test ./internal/experiments -run TestAllParallelMatchesSequential -update
func TestAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	// E4/E11's alloc_p95_us columns read the real monotonic clock by
	// design; pin them to a constant so the whole table is comparable
	// byte-for-byte. A pure function shares no state across workers.
	opt := Options{Seed: 42, Quick: true, Nanotime: func() int64 { return 0 }}
	seq := All(opt)
	par := AllParallel(opt, 8)
	if len(seq) != len(par) {
		t.Fatalf("parallel returned %d results, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i].ID != seq[i].ID {
			t.Fatalf("result %d: order not preserved: %s != %s", i, par[i].ID, seq[i].ID)
		}
		if got, want := par[i].String(), seq[i].String(); got != want {
			t.Errorf("%s: parallel output diverges from sequential:\n--- parallel\n%s\n--- sequential\n%s",
				seq[i].ID, got, want)
		}
	}
	var all strings.Builder
	for _, r := range seq {
		all.WriteString(r.String())
		all.WriteString("\n")
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := all.String(); got != string(want) {
		t.Errorf("quick seed-42 tables differ from %s (run with -update after an intended change):\n%s",
			goldenPath, firstDiff(got, string(want)))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + gl + "\n  want: " + wl
		}
	}
	return "(no differing line)"
}

// TestRunParallelSurfacesPanics: a panicking experiment must come back as
// a failed Result (Err set, same ID, same slot) while the other runners
// complete normally — the pool must not wedge or crash.
func TestRunParallelSurfacesPanics(t *testing.T) {
	ok := func(opt Options) Result { return Result{ID: "ok", Title: "fine"} }
	runners := []NamedRunner{
		{"ok-1", ok},
		{"boom", func(opt Options) Result { panic("injected failure") }},
		{"ok-2", ok},
		{"ok-3", ok},
	}
	results := RunParallel(runners, Options{Seed: 42, Quick: true}, 2)
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	if results[1].ID != "boom" || results[1].Err == "" {
		t.Fatalf("panicking runner result = %+v, want Err set", results[1])
	}
	if !strings.Contains(results[1].Err, "injected failure") {
		t.Fatalf("Err = %q, want the panic message", results[1].Err)
	}
	if !strings.Contains(results[1].String(), "error: panic: injected failure") {
		t.Fatalf("String() must render the error, got:\n%s", results[1].String())
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != "" || !strings.HasPrefix(results[i].ID, "ok") {
			t.Fatalf("sibling result %d corrupted: %+v", i, results[i])
		}
	}
}

// TestRunParallelWorkerBounds covers degenerate worker counts.
func TestRunParallelWorkerBounds(t *testing.T) {
	calls := 0
	runners := []NamedRunner{
		{"a", func(Options) Result { calls++; return Result{ID: "a"} }},
	}
	for _, workers := range []int{-1, 0, 1, 99} {
		calls = 0
		res := RunParallel(runners, Options{}, workers)
		if len(res) != 1 || res[0].ID != "a" || calls != 1 {
			t.Fatalf("workers=%d: res=%v calls=%d", workers, res, calls)
		}
	}
}
