package lintutil

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// The findings plane: cmd/p2plint flattens every diagnostic into a
// Finding record — printed as one file:line:col: analyzer: message
// line, or with -json as one JSON object with a stable field set and a
// stable sort — so the findings file diffs cleanly between runs and
// uploads as a build artifact.

// Finding is one diagnostic in the machine-readable output.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// NewFinding flattens one diagnostic.
func NewFinding(fset *token.FileSet, analyzer string, pos token.Pos, msg string) Finding {
	p := fset.Position(pos)
	return Finding{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: analyzer, Message: msg}
}

// String renders the finding as file:line:col: analyzer: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// SortFindings orders findings by file, line, column, analyzer, message
// — the stable order the JSON emitter relies on.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteFindings emits the findings as an indented JSON array (never
// null: an empty run writes []) after sorting them.
func WriteFindings(w io.Writer, fs []Finding) error {
	SortFindings(fs)
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

// TrimRoot rewrites each finding's file path, and every position its
// message quotes, relative to root (CI runs from the repo root; absolute
// runner paths would make artifacts diff dirty between runs). Files
// loaded under "." carry relative paths already.
func TrimRoot(fs []Finding, root string) {
	if root = filepath.Clean(root); root == "." {
		return
	}
	if !strings.HasSuffix(root, "/") {
		root += "/"
	}
	for i := range fs {
		fs[i].File = strings.TrimPrefix(fs[i].File, root)
		fs[i].Message = strings.ReplaceAll(fs[i].Message, root, "")
	}
}
