package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked target package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader discovers packages with `go list -deps -json` and type-checks them
// with go/types, entirely offline: no module proxy, no export data, no
// x/tools. Dependencies are checked with IgnoreFuncBodies (only their
// exported API matters); target packages keep full bodies and a populated
// types.Info. Test files are not analyzed — the enforced invariants concern
// production code, and tests legitimately use wall clocks and global rand.
type Loader struct {
	// Dir is where the go command runs; it must be inside the module when
	// loading module packages. Stdlib paths resolve from anywhere.
	Dir  string
	Fset *token.FileSet

	meta    map[string]*listPkg
	resolve map[string]string // source import path -> vendored/actual path
	checked map[string]*types.Package
	// targets are packages that get a full type-check (bodies + Info); each
	// is built exactly once so every importer sees one types.Package
	// identity per path.
	targets map[string]*listPkg
	built   map[string]*Package
}

type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	// DepOnly is set by `go list -deps` on packages that are only in the
	// output as dependencies of the named patterns — it is what lets one
	// -deps invocation serve as both the target list and the dependency
	// universe.
	DepOnly bool
}

// NewLoader returns a Loader running the go command in dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:     dir,
		Fset:    token.NewFileSet(),
		meta:    make(map[string]*listPkg),
		resolve: make(map[string]string),
		checked: make(map[string]*types.Package),
		targets: make(map[string]*listPkg),
		built:   make(map[string]*Package),
	}
}

// Load type-checks the packages matched by the go list patterns and returns
// them ready for analysis, in dependency order. One `go list -deps` call
// provides both the target set (entries without DepOnly) and the dependency
// metadata.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	var targets []*listPkg
	for _, p := range listed {
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	for _, t := range targets {
		if len(t.GoFiles) > 0 {
			l.targets[t.ImportPath] = t
		}
	}
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := l.ensureTarget(t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ensureTarget fully type-checks a target package once, memoized.
func (l *Loader) ensureTarget(m *listPkg) (*Package, error) {
	if pkg, ok := l.built[m.ImportPath]; ok {
		return pkg, nil
	}
	pkg, err := l.checkTarget(m)
	if err != nil {
		return nil, err
	}
	l.built[m.ImportPath] = pkg
	return pkg, nil
}

// list runs go list -deps over the patterns, merging the metadata into the
// loader and returning the listed packages.
func (l *Loader) list(patterns ...string) ([]*listPkg, error) {
	args := []string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,ImportMap,DepOnly"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	// Pure-Go stdlib variants only: cgo files cannot be type-checked from
	// source without running the C preprocessor.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listPkg
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		listed = append(listed, p)
		if _, ok := l.meta[p.ImportPath]; !ok {
			l.meta[p.ImportPath] = p
		}
		for from, to := range p.ImportMap {
			l.resolve[from] = to
		}
	}
	return listed, nil
}

// Import implements types.Importer over the loader's package universe;
// dependencies are type-checked on first use, API only.
func (l *Loader) Import(path string) (*types.Package, error) {
	if r, ok := l.resolve[path]; ok {
		path = r
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	// A target imported by another target gets its one full check now, so
	// both see the same types.Package identity.
	if m, ok := l.targets[path]; ok {
		pkg, err := l.ensureTarget(m)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	m, ok := l.meta[path]
	if !ok {
		// Metadata not seen yet (e.g. a fixture importing a stdlib package
		// outside the module's dependency closure): fetch it on demand.
		if _, err := l.list(path); err != nil {
			return nil, err
		}
		if m, ok = l.meta[path]; !ok {
			return nil, fmt.Errorf("package %s not found by go list", path)
		}
	}
	files, err := l.parse(m, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {}, // dependency errors surface via the nil-package check below
	}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil && (pkg == nil || !pkg.Complete()) {
		return nil, fmt.Errorf("type-checking dependency %s: %v", path, err)
	}
	l.checked[path] = pkg
	return pkg, nil
}

// checkTarget fully type-checks one target package with a populated
// types.Info.
func (l *Loader) checkTarget(m *listPkg) (*Package, error) {
	files, err := l.parse(m, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return l.CheckFiles(m.ImportPath, files)
}

// CheckFiles type-checks already-parsed files as package pkgPath, resolving
// imports through the loader. It is the entry point used both for target
// packages and for analysistest fixtures.
func (l *Loader) CheckFiles(pkgPath string, files []*ast.File) (*Package, error) {
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, _ := conf.Check(pkgPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, firstErr)
	}
	l.checked[pkgPath] = tpkg
	return &Package{
		PkgPath:   pkgPath,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

func (l *Loader) parse(m *listPkg, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(m.Dir, name), nil, mode)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}
