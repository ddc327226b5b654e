// Package srcload is the loader behind p2plint: it type-checks the
// whole module from source in one pass, so every analyzer and the
// whole-program lock-order graph share one load. Package directories
// are discovered by walking the tree, module-internal imports resolve
// recursively from their directories, and the standard library through
// go/importer's source importer. The module has no dependencies outside
// the standard library, so nothing else needs resolving. Check, the
// per-package parse and type-check step, is exported for the linttest
// harness, which resolves imports from fixture packages instead.
//
// Only non-test files are loaded: the analyses target production code,
// and test files routinely violate the invariants deliberately.
package srcload

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Pkg and Info are the type-checking results.
	Pkg  *types.Package
	Info *types.Info
}

// Config describes one load.
type Config struct {
	// Fset receives all positions; required.
	Fset *token.FileSet
	// Root is the directory of the module to load.
	Root string
	// Module is the module path packages are addressed under
	// (the Root directory itself loads as exactly Module).
	Module string
	// Only, when non-nil, filters package directories by their
	// slash-separated path relative to Root ("" is the root package).
	Only func(rel string) bool
}

// skipDirs are never descended into: fixtures are analyzer inputs, bin
// holds build products.
var skipDirs = map[string]bool{"testdata": true, "bin": true}

type loader struct {
	cfg  *Config
	dirs map[string]string // import path -> directory
	pkgs map[string]*Package
	typ  map[string]*types.Package
	std  types.Importer
	// loading guards against import cycles (a cycle is a type error the
	// checker would otherwise chase forever through our importer).
	loading map[string]bool
}

// Load discovers, parses, and type-checks the module's packages,
// returned sorted by import path.
func Load(cfg *Config) ([]*Package, error) {
	if cfg.Fset == nil || cfg.Root == "" || cfg.Module == "" {
		return nil, fmt.Errorf("srcload: Fset, Root and Module are required")
	}
	l := &loader{
		cfg:     cfg,
		dirs:    map[string]string{},
		pkgs:    map[string]*Package{},
		typ:     map[string]*types.Package{},
		std:     importer.ForCompiler(cfg.Fset, "source", nil),
		loading: map[string]bool{},
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, fmt.Errorf("srcload: %s: %w", p, err)
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// discover maps import paths to directories containing .go files.
func (l *loader) discover() error {
	return filepath.WalkDir(l.cfg.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if skipDirs[d.Name()] || (strings.HasPrefix(d.Name(), ".") && p != l.cfg.Root) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.cfg.Root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		if l.cfg.Only != nil && !l.cfg.Only(rel) {
			return nil // keep walking: a filtered parent may contain wanted children
		}
		hasGo := false
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if hasGo {
			l.dirs[path.Join(l.cfg.Module, rel)] = p
		}
		return nil
	})
}

// Import implements types.Importer for the type-checker's resolution of
// the packages under load.
func (l *loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if t, ok := l.typ[importPath]; ok {
		return t, nil
	}
	// Module-internal import outside the discovered set (filtered out by
	// Only, but still needed as a dependency): resolve its directory
	// from the import path.
	if dir, ok := l.dirs[importPath]; ok {
		pkg, err := l.loadDir(importPath, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	if rel, ok := strings.CutPrefix(importPath, l.cfg.Module+"/"); ok {
		dir := filepath.Join(l.cfg.Root, filepath.FromSlash(rel))
		if _, err := os.Stat(dir); err == nil {
			pkg, err := l.loadDir(importPath, dir)
			if err != nil {
				return nil, err
			}
			return pkg.Pkg, nil
		}
	}
	// Standard library.
	t, err := l.std.Import(importPath)
	if err != nil {
		return nil, err
	}
	l.typ[importPath] = t
	return t, nil
}

// load type-checks one discovered package.
func (l *loader) load(importPath string) (*Package, error) {
	return l.loadDir(importPath, l.dirs[importPath])
}

func (l *loader) loadDir(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer func() { l.loading[importPath] = false }()

	pkg, err := Check(l.cfg.Fset, importPath, dir, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	l.typ[importPath] = pkg.Pkg
	return pkg, nil
}

// Check parses the non-test .go files of dir and type-checks them as
// package importPath, resolving imports through imp.
func Check(fset *token.FileSet, importPath, dir string, imp types.Importer) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable .go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Pkg: tpkg, Info: info}, nil
}
