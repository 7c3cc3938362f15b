// Package analysistest runs a nyx-vet analyzer against golden fixture
// packages under testdata/src, mirroring the x/tools package of the same
// name: fixture files mark each expected diagnostic with a trailing
//
//	// want "regexp" ["regexp" ...]
//
// comment on the offending line. The test fails on any unmatched
// expectation and on any unexpected diagnostic, so every fixture is both a
// positive test (the analyzer fires where it must) and a negative one (it
// stays silent everywhere else).
//
// Fixtures may import other fixture packages: list their paths as deps and
// they are loaded (with full bodies, so transitive facts flow through them)
// before the main package and analyzed alongside it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// One loader is shared by every fixture run in the process: stdlib
// dependency metadata, type-checked packages, and fixture packages are
// cached across fixtures, keeping the whole suite at one `go list`
// round-trip per distinct import.
var (
	loaderMu sync.Mutex
	loader   *analysis.Loader
	fixtures = make(map[string]*analysis.Package) // fixture pkgPath -> loaded package
)

// Run analyzes the fixture package testdata/src/<pkgPath> with a and
// compares diagnostics against the fixture's want comments (collected from
// the main package and every dep). The fixture's import path is pkgPath
// itself, so analyzer package gating (e.g. lockheld only applying to the
// service and store packages) is exercised by the full path. Dep fixtures are
// loaded first so the main package's imports resolve against them.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string, deps ...string) {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()
	diags, wants := run(t, testdata, a, pkgPath, deps)

	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		if !claimWant(wants[key], d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.re)
			}
		}
	}
}

// Diagnostics runs a over the fixture (plus deps) and returns the raw
// diagnostic messages, without comparing want comments. The mutation tests
// use it to show that a finding present under full fact propagation
// disappears when propagation is disabled.
func Diagnostics(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string, deps ...string) []string {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()
	diags, _ := run(t, testdata, a, pkgPath, deps)
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.Message
	}
	return msgs
}

// run loads deps then the main fixture, analyzes them together, and returns
// the diagnostics plus the want expectations of every involved package.
// Callers hold loaderMu.
func run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string, deps []string) ([]analysis.Diagnostic, map[string][]*want) {
	t.Helper()
	var pkgs []*analysis.Package
	wants := make(map[string][]*want)
	for _, p := range append(append([]string(nil), deps...), pkgPath) {
		pkg := loadFixture(t, testdata, p)
		pkgs = append(pkgs, pkg)
		collectPkgWants(t, filepath.Join(testdata, "src", filepath.FromSlash(p)), wants)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags, wants
}

// loadFixture parses and type-checks one fixture package, memoized by its
// import path. Callers hold loaderMu.
func loadFixture(t *testing.T, testdata, pkgPath string) *analysis.Package {
	t.Helper()
	if pkg, ok := fixtures[pkgPath]; ok {
		return pkg
	}
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
	if loader == nil {
		loader = analysis.NewLoader(dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(loader.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	pkg, err := loader.CheckFiles(pkgPath, files)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}
	fixtures[pkgPath] = pkg
	return pkg
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func claimWant(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectPkgWants scans every fixture file in dir for want comments.
func collectPkgWants(t *testing.T, dir string, wants map[string][]*want) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		collectWants(t, filepath.Join(dir, e.Name()), wants)
	}
}

// collectWants scans a fixture file's source for `// want "re"...` comments.
func collectWants(t *testing.T, path string, wants map[string][]*want) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		rest := strings.TrimSpace(line[idx+len("// want "):])
		key := fmt.Sprintf("%s:%d", path, i+1)
		for rest != "" {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				t.Fatalf("%s: malformed want comment %q: %v", key, rest, err)
			}
			pat, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s: unquoting %q: %v", key, q, err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
			}
			wants[key] = append(wants[key], &want{re: re})
			rest = strings.TrimSpace(rest[len(q):])
		}
	}
}
