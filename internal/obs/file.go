package obs

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// Well-known filenames inside an observability directory, as written by
// `p2psim -obs DIR` and read by `p2ptop -dir DIR`. Each file is the
// same document the matching diagnostics endpoint serves.
const (
	FileTrace     = "trace.jsonl"
	FileSketches  = "sketches.json"
	FileDecisions = "decisions.json"
	FileMetrics   = "metrics.json"
)

// LoadDir reads one node's observability documents from a directory.
// Missing files are fine — a sim run without a tracer writes no
// trace.jsonl — but unreadable or malformed present files error.
func LoadDir(dir string) (NodeData, error) {
	n := NodeData{Name: dir}
	var md metricsDoc
	if err := loadJSON(filepath.Join(dir, FileMetrics), &md); err != nil {
		return n, err
	}
	n.Families = md.Families
	var sd sketchesDoc
	if err := loadJSON(filepath.Join(dir, FileSketches), &sd); err != nil {
		return n, err
	}
	n.Sketches = sd.Sketches
	var dd decisionsDoc
	if err := loadJSON(filepath.Join(dir, FileDecisions), &dd); err != nil {
		return n, err
	}
	n.Decisions = dd.Decisions
	f, err := os.Open(filepath.Join(dir, FileTrace))
	if err != nil {
		if os.IsNotExist(err) {
			return n, nil
		}
		return n, err
	}
	defer f.Close()
	n.Trace, err = trace.ReadJSONL(f)
	return n, err
}

// loadJSON reads path into out; a missing file leaves out untouched.
func loadJSON(path string, out any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return json.Unmarshal(b, out)
}
