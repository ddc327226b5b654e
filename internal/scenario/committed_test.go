package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/committed.golden from this build")

const committedGolden = "testdata/committed.golden"

// TestCommittedScenarios pins every file under scenarios/: one line per
// file with the SHA-256 of the parsed Spec (%#v) and of the RunSim
// report JSON under the file's own seed. Every file must also pass its
// own assertions on the simulator. A refactor of the decoder or the
// runners must leave the golden untouched; after an intended change,
// rerun with -update and say why the digests moved.
func TestCommittedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed scenarios found (err %v)", err)
	}
	var got strings.Builder
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		specSum := sha256.Sum256([]byte(fmt.Sprintf("%#v", *s)))
		p, err := Expand(s, s.Seed)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		rep := RunSim(p)
		var rb bytes.Buffer
		if err := rep.WriteJSON(&rb); err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			var b bytes.Buffer
			rep.Render(&b)
			t.Errorf("%s fails its assertions:\n%s", f, b.String())
		}
		fmt.Fprintf(&got, "%s spec=%x report=%x\n", filepath.Base(f), specSum, sha256.Sum256(rb.Bytes()))
	}
	if *update {
		if err := os.WriteFile(committedGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(committedGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("committed scenarios differ from %s (run with -update after an intended change):\ngot:\n%swant:\n%s",
			committedGolden, got.String(), want)
	}
}
