// Package analysis is nyx-vet's repo-specific analyzer suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus an offline package loader, used
// to mechanically enforce the determinism, aliasing, and locking invariants
// this repository's virtual-time design depends on.
//
// The container building this repository has no module proxy access, so the
// framework deliberately uses only the standard library: packages are
// discovered with `go list -deps -json` and type-checked with go/types
// (see load.go). The analyzer API mirrors x/tools closely enough that the
// analyzers could be ported to real go/analysis verbatim if the dependency
// ever becomes available.
//
// # Invariants enforced
//
//   - nodeterm: virtual-time packages must not read the wall clock, use the
//     global math/rand generator, or let map iteration order escape into
//     outputs. Coverage columns across PRs are compared byte-for-byte
//     (PR 5's hotpath refactor was accepted only because its coverage output
//     was identical to PR 4's), so any hidden nondeterminism breaks the
//     repo's reproducibility contract.
//   - aliasret: exported functions must not return slices or maps that alias
//     unexported struct state (the DirtyPages bug class fixed in PR 4, where
//     an internal page set escaped through the API and later mutations
//     corrupted the caller's view).
//   - lockheld: no blocking operation (channel send/receive, select without
//     default, WaitGroup.Wait, time.Sleep, network or store I/O, or taking
//     another mutex) may be reachable while a broker/service/store mutex is
//     held. Since no mutex is ever taken while another is held, no two locks
//     can be taken in opposite orders: the rule is the suite's
//     deadlock-freedom guardrail.
//   - slicearg: exported functions must not retain caller-owned slice
//     arguments past the call (the retained-trace bug class the broker's
//     orderImportsInto scratch rework avoided by hand in PR 5).
//
// What the suite does not check, the tests do: every function on the
// restore, lookup and resumed-run paths runs under a testing.AllocsPerRun
// test that holds it to zero allocations, and no write through a spec.Op's
// shared Args or Data array gets past the shared-input contract tests
// (TestMutationNeverWritesThroughSharedOps and the campaign recordings).
//
// # Interprocedural layer
//
// nodeterm and lockheld are backed by a whole-program fact engine
// (callgraph.go, facts.go): a call graph over every loaded package — static
// calls plus CHA resolution of interface method calls — carries
// per-function summaries (reads-wallclock, uses-global-rand, may-block) to a
// fixed point. Diagnostics for transitive findings include
// the full witness chain, e.g. (from the lockheld fixture,
// testdata/src/repro/internal/campaign/a.go)
//
//	call that may block: campaign.(*Broker).emit → campaign.(*Broker).relay (channel send at a.go:101) while b.mu is held
//
// so a suppression is reviewable without re-deriving the path by hand. A
// directive placed at the *source* site (the time.Now call, the blocking
// call) suppresses the fact itself: a reviewed source does not taint its callers.
//
// # Directives
//
// Deliberate exceptions are annotated in source with a directive comment on
// the flagged line, the line above it, or the enclosing function's doc
// comment, always with a reason:
//
//	//nyx:wallclock <why>  - wall-clock telemetry site (nodeterm)
//	//nyx:rand <why>       - deliberate global-rand use (nodeterm)
//	//nyx:maporder <why>   - map iteration order provably cannot escape (nodeterm)
//	//nyx:aliased <why>    - documented zero-copy return (aliasret)
//	//nyx:blocking <why>   - reviewed blocking call under lock (lockheld)
//	//nyx:retains <why>    - documented ownership transfer (slicearg)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one nyx-vet check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks stay portable.
type Analyzer struct {
	Name string
	Doc  string

	// PkgPaths restricts the analyzer to packages with exactly these import
	// paths (e.g. "repro/internal/core"). An empty list applies the
	// analyzer to every package. Matching is on the full path: gating by
	// the path's base name would also capture unrelated dependencies that
	// happen to end in the same element (any future dep ending in /core
	// would silently inherit the virtual-time contract).
	PkgPaths []string

	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer runs on the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.PkgPaths) == 0 {
		return true
	}
	for _, p := range a.PkgPaths {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// Diagnostic is a single finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string

	// Prog is the interprocedural view over every package in the Run: the
	// call graph and the transitive fact summaries (see callgraph.go and
	// facts.go). Analyzers consult it for reachability checks; purely
	// intraprocedural analyzers can ignore it.
	Prog *Program

	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether the finding at node is suppressed by a
// //nyx:<name> directive: on the node's line, on the line directly above it,
// or in the doc comment of the function declaration enclosing it.
func (p *Pass) Allowed(node ast.Node, name string) bool {
	return p.Prog.pkgDirectives(p.PkgPath).allowed(p.Fset, node.Pos(), name)
}

// directiveIndex records every //nyx: directive by file position.
type directiveIndex struct {
	// lines maps "file:line" of a directive comment to the directive names
	// present on that line.
	lines map[string]map[string]bool
	// funcs holds, per file, the position ranges of function declarations
	// whose doc comment carries directives.
	funcs []funcDirectives
}

type funcDirectives struct {
	pos, end token.Pos
	names    map[string]bool
}

const directivePrefix = "//nyx:"

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{lines: make(map[string]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := lineKey(pos.Filename, pos.Line)
				if idx.lines[key] == nil {
					idx.lines[key] = make(map[string]bool)
				}
				idx.lines[key][name] = true
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			names := make(map[string]bool)
			for _, c := range fd.Doc.List {
				if name, ok := parseDirective(c.Text); ok {
					names[name] = true
				}
			}
			if len(names) > 0 {
				idx.funcs = append(idx.funcs, funcDirectives{pos: fd.Pos(), end: fd.End(), names: names})
			}
		}
	}
	return idx
}

func parseDirective(text string) (string, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", false
	}
	rest := text[len(directivePrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// allowed reports whether a name directive covers pos; a nil index (a
// package outside the Run) allows nothing.
func (idx *directiveIndex) allowed(fset *token.FileSet, pos token.Pos, name string) bool {
	if idx == nil {
		return false
	}
	p := fset.Position(pos)
	if idx.lines[lineKey(p.Filename, p.Line)][name] {
		return true
	}
	if idx.lines[lineKey(p.Filename, p.Line-1)][name] {
		return true
	}
	for _, fd := range idx.funcs {
		if fd.names[name] && pos >= fd.pos && pos < fd.end {
			return true
		}
	}
	return false
}

// Run applies every applicable analyzer to every package and returns the
// diagnostics sorted by position then analyzer name. The interprocedural
// Program (call graph + fact summaries) is built once over all packages and
// shared by every pass, so transitive reasoning spans exactly the packages
// handed to Run: `nyx-vet ./...` sees the whole module.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := buildProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				Prog:      prog,
			}
			pass.Report = func(d Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sortDiagnostics(pkgs, diags)
	return diags, nil
}

func sortDiagnostics(pkgs []*Package, diags []Diagnostic) {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if fset != nil {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// All returns the full nyx-vet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{NoDeterm, AliasRet, LockHeld, SliceArg}
}
