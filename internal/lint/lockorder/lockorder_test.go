package lockorder_test

import (
	"go/token"
	"os"
	"strings"
	"testing"

	"repro/internal/lint/lockorder"
	"repro/internal/lint/srcload"
)

// analyze loads the packages under root that only selects, through the
// loader the real analysis uses, and builds their lock graph.
func analyze(t *testing.T, root, module string, only func(rel string) bool) *lockorder.Result {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := srcload.Load(&srcload.Config{Fset: fset, Root: root, Module: module, Only: only})
	if err != nil {
		t.Fatalf("loading %s: %v", root, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded under %s", root)
	}
	return lockorder.Analyze(fset, pkgs)
}

// loadFixture analyzes one testdata package.
func loadFixture(t *testing.T, pkg string) *lockorder.Result {
	return analyze(t, "testdata/src", "p2plint.example", func(rel string) bool { return rel == pkg })
}

// TestSeededInversion proves the analyzer catches a deliberate
// lock-order cycle and reports both acquisition paths.
func TestSeededInversion(t *testing.T) {
	res := loadFixture(t, "cyclepkg")
	if len(res.Cycles) != 1 {
		t.Fatalf("want exactly 1 cycle, got %d\n%s", len(res.Cycles), res.CycleReport())
	}
	cyc := res.Cycles[0]
	wantLocks := []string{
		"p2plint.example/cyclepkg.Sched.mu",
		"p2plint.example/cyclepkg.Table.mu",
	}
	if len(cyc.Locks) != 2 || cyc.Locks[0] != wantLocks[0] || cyc.Locks[1] != wantLocks[1] {
		t.Fatalf("cycle locks = %v, want %v", cyc.Locks, wantLocks)
	}
	report := res.CycleReport()
	// Both directions must be witnessed with their acquisition paths.
	for _, needle := range []string{
		"Sched.mu -> p2plint.example/cyclepkg.Table.mu via:",
		"Table.mu -> p2plint.example/cyclepkg.Sched.mu via:",
		"Sched.Dispatch calls p2plint.example/cyclepkg.Table.lookup",
		"Table.Compact calls p2plint.example/cyclepkg.Sched.enqueue",
	} {
		if !strings.Contains(report, needle) {
			t.Errorf("cycle report missing %q:\n%s", needle, report)
		}
	}
}

// TestConsistentOrder proves direct and call-through nesting produce
// edges, no cycle, and the right ranking.
func TestConsistentOrder(t *testing.T) {
	res := loadFixture(t, "orderpkg")
	if len(res.Cycles) != 0 {
		t.Fatalf("unexpected cycles:\n%s", res.CycleReport())
	}
	mgr := "p2plint.example/orderpkg.Manager.mu"
	ses := "p2plint.example/orderpkg.Session.mu"
	if _, ok := res.Edges[mgr+"\x00"+ses]; !ok {
		t.Fatalf("missing edge %s -> %s; edges: %v", mgr, ses, res.Edges)
	}
	if _, ok := res.Edges[ses+"\x00"+mgr]; ok {
		t.Fatalf("phantom inverted edge %s -> %s", ses, mgr)
	}
	ranked := res.Ranked()
	iMgr, iSes := -1, -1
	for i, l := range ranked {
		switch l {
		case mgr:
			iMgr = i
		case ses:
			iSes = i
		}
	}
	if iMgr < 0 || iSes < 0 || iMgr > iSes {
		t.Fatalf("ranking %v does not place %s above %s", ranked, mgr, ses)
	}
}

// TestOrderGolden is the CI gate: the committed ORDER.golden must match
// the graph of the tree as it is. A mismatch means a lock or a nesting
// changed — review it, then `make lockorder-golden`.
func TestOrderGolden(t *testing.T) {
	res := analyze(t, "../../..", "repro", lockorder.Scope)
	if len(res.Cycles) > 0 {
		t.Fatalf("lock-order cycles in the tree:\n%s", res.CycleReport())
	}
	want, err := os.ReadFile("ORDER.golden")
	if err != nil {
		t.Fatalf("reading ORDER.golden (regenerate with `make lockorder-golden`): %v", err)
	}
	if diff := lockorder.Diff(string(want), res.Golden()); diff != "" {
		t.Errorf("lock acquisition order changed; review and run `make lockorder-golden`:\n%s", diff)
	}
}
