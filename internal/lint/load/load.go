// Package load type-checks Go packages for analysis without
// golang.org/x/tools/go/packages: it shells out to `go list -export` for
// package metadata and compiled export data, parses the target packages'
// sources, and type-checks them with the standard library's go/types and
// gc importer. Only the current module and its standard-library imports
// resolve — exactly the closed world uncertlint analyzes.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader loads and type-checks packages. It caches export data paths and
// imported packages, so loading many packages (or many testdata
// directories) pays for `go list` and each import once. A Loader is safe
// for use from one goroutine.
type Loader struct {
	// Dir is the directory `go list` runs in; it must lie inside the
	// module being analyzed. Empty means the current directory.
	Dir string
	// Src, when set, is a GOPATH-style source root: an import path naming
	// a directory under it is type-checked from that directory's sources
	// (testdata packages importing a sibling stand-in), any other from the
	// module's export data.
	Src string

	fset    *token.FileSet
	imp     types.ImporterFrom
	mu      sync.Mutex
	exports map[string]string         // import path -> export data file
	srcPkgs map[string]*types.Package // import path -> package checked from Src
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}, srcPkgs: map[string]*types.Package{}}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// srcImporter is the type checker's importer: Src first, then export data.
type srcImporter struct{ l *Loader }

func (s srcImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s srcImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := s.l
	if p, ok := l.srcPkgs[path]; ok {
		return p, nil
	}
	if src := filepath.Join(l.Src, path); l.Src != "" {
		if fi, err := os.Stat(src); err == nil && fi.IsDir() {
			p, err := l.LoadDir(src, path)
			if err != nil {
				return nil, err
			}
			l.srcPkgs[path] = p.Types
			return p.Types, nil
		}
	}
	return l.imp.ImportFrom(path, dir, mode)
}

type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` over the patterns and records
// every listed package's export data file. It returns the packages that
// matched the patterns themselves (DepOnly == false).
func (l *Loader) goList(patterns ...string) ([]listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,CgoFiles,Export,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		l.mu.Lock()
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		l.mu.Unlock()
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return targets, nil
}

// lookupExport serves the gc importer: it returns a reader over the export
// data of the given import path, running `go list` lazily for paths not
// seen yet (a testdata package importing something outside the already
// listed dependency closure).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		if _, err := l.goList(path); err != nil {
			return nil, fmt.Errorf("resolving import %q: %v", path, err)
		}
		l.mu.Lock()
		file, ok = l.exports[path]
		l.mu.Unlock()
	}
	if !ok || file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// Load lists the packages matching the go package patterns and type-checks
// each from source. Test files are not part of the returned syntax — the
// suite checks production code, and several analyzers deliberately exempt
// tests.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	targets, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := l.check(t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks every non-test .go file in dir as one
// package with the given import path. It exists for testdata packages,
// which live outside the module's package graph; their imports resolve
// against the enclosing module via the lazy export lookup.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	return l.check(importPath, dir, files)
}

// check parses the named files and type-checks them as one package.
func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: srcImporter{l}}
	tpkg, err := conf.Check(importPath, l.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      syntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}
