package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseYAML asserts that neither the hand-rolled YAML parser nor
// the spec decoder behind Parse, which walks Spec by reflection, panics
// or hangs on arbitrary input: each returns a result or a positioned
// error. The corpus holds YAML shapes, every committed scenario file
// and every rejection case. CI runs the seed corpus via plain
// `go test`; use `make fuzz-scenario` to explore further.
func FuzzParseYAML(f *testing.F) {
	seeds := []string{
		"",
		"a: 1",
		"a:\n  b: 2\n  c: [1, 2, [3]]",
		"fleet:\n  - name: x\n    weight: 2\n  - name: y",
		"run:\n  - at: 2s\n    do: sever 0 1\n",
		"msg: \"q\\n\\\"x\\\"\"",
		"- 1\n- 2\n-\n- - 3",
		"a: [",
		"a: \"",
		"\t",
		"---",
		"a: &x",
		"k:\n k:\n  k:\n   k:",
		"assert:\n  groups: [[0,1],[2]]",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, tc := range rejectCases {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := parseYAML(data)
		if err == nil && node == nil {
			t.Fatal("nil node with nil error")
		}
		s, err := Parse(data)
		if err == nil && (s == nil || s.Name == "" || s.Fleet.Size < 1) {
			t.Fatalf("Parse accepted an invalid spec: %#v", s)
		}
	})
}
