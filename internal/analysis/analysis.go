// Package analysis is nyx-vet's repo-specific analyzer: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus an offline package loader,
// used to enforce the one locking invariant no runtime check sees.
//
// The container building this repository has no module proxy access, so the
// framework deliberately uses only the standard library: packages are
// discovered with `go list -deps -json` and type-checked with go/types
// (see load.go). The analyzer API mirrors x/tools closely enough that the
// analyzer could be ported to real go/analysis verbatim if the dependency
// ever becomes available.
//
// # Invariant enforced
//
//   - lockheld: no blocking operation (channel send/receive, select without
//     default, WaitGroup.Wait, time.Sleep, network or store I/O, or taking
//     another mutex) may be reachable while a service/store mutex is held.
//     Since no mutex is ever taken while another is held, no two locks can
//     be taken in opposite orders: the rule is the deadlock-freedom
//     guardrail. The race detector does not see it: a lock held across a
//     call that takes another lock races on nothing.
//
// The repository's other invariants are checked by running the code:
// seeded recordings and run-twice comparisons catch wall clocks, global
// rand and map order steering a campaign (service listings and shutdown
// order included), and tests that mutate what an API returned or reuse a
// buffer it was handed catch aliasing. Every function on the
// restore, lookup and resumed-run paths runs under a testing.AllocsPerRun
// test that holds it to zero allocations, and no write through a spec.Op's
// shared Args or Data array gets past the shared-input contract tests
// (TestMutationNeverWritesThroughSharedOps and the campaign recordings).
//
// # Interprocedural layer
//
// lockheld is backed by a whole-program fact engine (callgraph.go,
// facts.go): a call graph over every loaded package — static calls plus CHA
// resolution of interface method calls — carries a per-function may-block
// summary to a fixed point. Diagnostics for transitive findings include the
// full witness chain, e.g. (from the lockheld fixture,
// testdata/src/repro/internal/store/a.go)
//
//	call that may block: store.(*Bucket).emit → store.(*Bucket).relay (channel send at a.go:101) while b.mu is held
//
// so a suppression is reviewable without re-deriving the path by hand. A
// directive placed at the *source* site (the blocking call) suppresses the
// fact itself: a reviewed source does not taint its callers.
//
// # Directive
//
// A reviewed exception is annotated in source with a directive comment on
// the flagged line, the line above it, or the enclosing function's doc
// comment, always with a reason:
//
//	//nyx:blocking <why>   - reviewed blocking call under lock (lockheld)
//
// Comments of other //nyx: names are not directives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer describes one nyx-vet check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks stay portable.
type Analyzer struct {
	Name string
	Doc  string

	// PkgPaths restricts the analyzer to packages with exactly these import
	// paths (e.g. "repro/internal/store"). An empty list applies the
	// analyzer to every package. Matching is on the full path: gating by
	// the path's base name would also capture unrelated dependencies that
	// happen to end in the same element (any future dep ending in /store
	// would silently inherit the locking contract).
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
	TypesInfo *types.Info
	PkgPath   string

	// Prog is the interprocedural view over every package in the Run: the
	// call graph and the transitive may-block summaries (see callgraph.go
	// and facts.go).
	Prog *Program

	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether the finding at node is suppressed by a
// //nyx:blocking directive: on the node's line, on the line directly above
// it, or in the doc comment of the function declaration enclosing it.
func (p *Pass) Allowed(node ast.Node) bool {
	return p.Prog.pkgDirectives(p.PkgPath).allowed(p.Fset, node.Pos())
}

// directiveIndex records every //nyx:blocking directive by file position.
type directiveIndex struct {
	// lines holds the "file:line" of every directive comment.
	lines map[string]bool
	// funcs holds the position ranges of function declarations whose doc
	// comment carries a directive.
	funcs []funcRange
}

type funcRange struct{ pos, end token.Pos }

// directive is lockheld's waiver, the one //nyx: name nyx-vet reads.
const directive = "//nyx:blocking"

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{lines: make(map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if isDirective(c.Text) {
					pos := fset.Position(c.Pos())
					idx.lines[lineKey(pos.Filename, pos.Line)] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil && slices.ContainsFunc(fd.Doc.List, func(c *ast.Comment) bool { return isDirective(c.Text) }) {
				idx.funcs = append(idx.funcs, funcRange{fd.Pos(), fd.End()})
			}
		}
	}
	return idx
}

// isDirective reports whether a comment's text is a //nyx:blocking
// directive: the name, then the end of the comment or a blank before the
// reason.
func isDirective(text string) bool {
	rest, ok := strings.CutPrefix(text, directive)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// allowed reports whether a directive covers pos; a nil index (a package
// outside the Run) allows nothing.
func (idx *directiveIndex) allowed(fset *token.FileSet, pos token.Pos) bool {
	if idx == nil {
		return false
	}
	p := fset.Position(pos)
	if idx.lines[lineKey(p.Filename, p.Line)] || idx.lines[lineKey(p.Filename, p.Line-1)] {
		return true
	}
	for _, fd := range idx.funcs {
		if pos >= fd.pos && pos < fd.end {
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
	return []*Analyzer{LockHeld}
}
