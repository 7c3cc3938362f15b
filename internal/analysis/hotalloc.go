package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc forbids heap allocations in functions marked //nyx:hotpath.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: `forbid heap allocations in //nyx:hotpath functions

The snapshot-restore and repeat-lookup paths run once per execution — tens
of thousands of times per virtual second — so a single allocation there
shows up directly in ns_per_restore. Functions whose doc comment carries
//nyx:hotpath must not allocate: no escaping composite literals, slice or
map literals, make/new, fmt or errors.New calls, allocating string
conversions, interface boxing of struct values, zero-capacity reslice
appends, or growth of an un-presized local slice. Calls into functions
that (transitively) allocate are flagged with the full call chain. A
reviewed cold path (e.g. an error return) carries //nyx:alloc <why>, which
also stops the allocation fact from tainting callers.

Only this check catches, for example, snappool's Pool.LookupDigest copying
the digest into a make'd key buffer on every call.`,
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	prog := pass.Prog
	for _, node := range prog.nodes {
		if node.Pkg.PkgPath != pass.PkgPath || !prog.hotpathMarked(node) {
			continue
		}
		checkHotFunc(pass, node)
	}
	return nil
}

// hotpathMarked reports whether the function's doc comment (or its
// declaration line) carries //nyx:hotpath.
func (prog *Program) hotpathMarked(node *FuncNode) bool {
	return prog.allowedAt(node.Pkg, node.Decl.Name.Pos(), "hotpath")
}

// checkHotFunc flags direct allocation sites in a hotpath function and call
// sites whose callees transitively allocate. Function literals are skipped:
// closures on the hot path are a separate concern (and deferred closures in
// this codebase are open-coded by the compiler, not allocated).
func checkHotFunc(pass *Pass, node *FuncNode) {
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		for _, site := range allocSitesOf(node.Pkg, n) {
			if !pass.Prog.allowedAt(node.Pkg, site.pos, "alloc") {
				pass.Reportf(site.pos, "%s in //nyx:hotpath function %s: hoist it off the hot path, pre-size a scratch buffer, or annotate a reviewed cold path with //nyx:alloc", site.desc, node.Fn.Name())
			}
		}
		if call, ok := n.(*ast.CallExpr); ok {
			checkLocalAppendGrowth(pass, node, call)
		}
		return true
	})

	// Transitive: calls into functions that allocate somewhere downstream.
	prog := pass.Prog
	for _, site := range node.Calls {
		if site.ViaGo {
			continue
		}
		for _, callee := range site.Callees {
			cn := prog.node(callee)
			if cn != nil && prog.hotpathMarked(cn) {
				// The callee is itself hotpath-gated: its allocations are
				// reported (or reviewed) at their own sites.
				continue
			}
			ff := prog.factsOf(callee)
			if ff == nil || !ff.has[factAllocates] {
				continue
			}
			if !pass.Allowed(site.Call, "alloc") {
				pass.Reportf(site.Pos, "call from //nyx:hotpath function %s allocates: %s (//nyx:alloc to accept a reviewed cold path)", node.Fn.Name(), prog.chain(callee, factAllocates))
			}
			break // one report per site is enough, even with several CHA targets
		}
	}
}

// allowedAt checks a //nyx: directive by position using the program-wide
// directive index (usable outside the reporting package's own pass).
func (prog *Program) allowedAt(pkg *Package, pos token.Pos, name string) bool {
	return prog.pkgDirectives(pkg.PkgPath).allowed(pkg.Fset, pos, name)
}

// checkLocalAppendGrowth flags append growth of a slice that the function
// declared empty (var s []T, s := []T{}, or s := T(nil)): every append to
// it must grow the backing array. Appends rooted at parameters, struct
// fields, or package state are exempt — those are the caller-presized and
// scratch-reuse patterns the hot path is built on.
func checkLocalAppendGrowth(pass *Pass, node *FuncNode, call *ast.CallExpr) {
	info := node.Pkg.TypesInfo
	if !isBuiltinAppendInfo(info, call) || len(call.Args) == 0 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if _, zeroCap := zeroCapReslice(arg); zeroCap {
		return // already reported as a direct alloc site
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	// Local to this function, and declared without capacity?
	if obj.Pos() < node.Decl.Pos() || obj.Pos() >= node.Decl.End() {
		return
	}
	if isParam(node, obj) || !declaredEmpty(node, info, obj) {
		return
	}
	if !pass.Prog.allowedAt(node.Pkg, call.Pos(), "alloc") {
		pass.Reportf(call.Pos(), "append grows un-presized local slice %q in //nyx:hotpath function %s: pre-size it or reuse a scratch buffer (//nyx:alloc to suppress)", obj.Name(), node.Fn.Name())
	}
}

func isParam(node *FuncNode, obj *types.Var) bool {
	sig := node.Fn.Signature()
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	if recv := sig.Recv(); recv == obj {
		return true
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == obj {
			return true
		}
	}
	return false
}

// declaredEmpty reports whether obj's declaration inside the function is a
// nil or empty slice (var s []T; s := []T{}; s, _ := f() is NOT empty).
func declaredEmpty(node *FuncNode, info *types.Info, obj *types.Var) bool {
	empty := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			for i, name := range d.Names {
				if info.Defs[name] != obj {
					continue
				}
				if len(d.Values) == 0 {
					empty = true // var s []T
				} else if i < len(d.Values) {
					empty = emptySliceExpr(d.Values[i])
				}
			}
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.Defs[id] != obj {
					continue
				}
				if i < len(d.Rhs) && len(d.Rhs) == len(d.Lhs) {
					empty = emptySliceExpr(d.Rhs[i])
				}
			}
		}
		return true
	})
	return empty
}

// emptySliceExpr matches []T{} and nil.
func emptySliceExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(x.Elts) == 0
	case *ast.Ident:
		return x.Name == "nil"
	}
	return false
}

// allocSite is one syntactic heap allocation.
type allocSite struct {
	pos  token.Pos
	desc string
}

// allocSitesOf classifies a single AST node as zero or more allocation
// sites. It is shared by the hotalloc direct check and the fact engine's
// allocates seed.
func allocSitesOf(pkg *Package, n ast.Node) []allocSite {
	info := pkg.TypesInfo
	switch m := n.(type) {
	case *ast.UnaryExpr:
		if m.Op == token.AND {
			if _, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok {
				return []allocSite{{m.Pos(), "escaping composite literal (&T{...})"}}
			}
		}
	case *ast.CompositeLit:
		t := info.Types[m].Type
		if t == nil {
			return nil
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			return []allocSite{{m.Pos(), "slice literal"}}
		case *types.Map:
			return []allocSite{{m.Pos(), "map literal"}}
		}
	case *ast.CallExpr:
		return callAllocSites(pkg, m)
	}
	return nil
}

func callAllocSites(pkg *Package, call *ast.CallExpr) []allocSite {
	info := pkg.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return []allocSite{{call.Pos(), "make"}}
			case "new":
				return []allocSite{{call.Pos(), "new"}}
			case "append":
				if len(call.Args) > 0 {
					if pos, ok := zeroCapReslice(ast.Unparen(call.Args[0])); ok {
						return []allocSite{{pos, "append to a zero-capacity reslice x[:0:0] (forces reallocation every call)"}}
					}
				}
			}
			return nil
		}
	}
	// Allocating conversion: string <-> []byte/[]rune copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if desc, ok := allocConversion(info, tv.Type, call.Args[0]); ok {
			return []allocSite{{call.Pos(), desc}}
		}
		return nil
	}
	fn := calleeFuncInfo(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return []allocSite{{call.Pos(), "fmt." + fn.Name() + " (allocates)"}}
	case "errors":
		if fn.Name() == "New" {
			return []allocSite{{call.Pos(), "errors.New (allocates)"}}
		}
	}
	return boxingSites(info, fn, call)
}

func allocConversion(info *types.Info, to types.Type, arg ast.Expr) (string, bool) {
	from := info.Types[arg].Type
	if from == nil {
		return "", false
	}
	if isString(to) && isByteOrRuneSlice(from) {
		return "string([]byte) conversion (copies)", true
	}
	if isByteOrRuneSlice(to) && isString(from) {
		return "[]byte(string) conversion (copies)", true
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxingSites flags struct or array values passed where the callee takes an
// interface: the value is boxed, which allocates. Pointers, basics, and
// values that are already interface-typed do not box. The variadic
// parameter is skipped (fmt-style calls are flagged wholesale above).
func boxingSites(info *types.Info, fn *types.Func, call *ast.CallExpr) []allocSite {
	sig := fn.Signature()
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n--
	}
	var sites []allocSite
	for i := 0; i < n && i < len(call.Args); i++ {
		pt := params.At(i).Type()
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[call.Args[i]].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Struct, *types.Array:
			sites = append(sites, allocSite{call.Args[i].Pos(),
				fmt.Sprintf("interface boxing of %s value", at.String())})
		}
	}
	return sites
}

// zeroCapReslice matches x[:0:0] (and x[0:0:0]): a reslice whose capacity
// is forced to zero, so any later append must reallocate.
func zeroCapReslice(e ast.Expr) (token.Pos, bool) {
	s, ok := e.(*ast.SliceExpr)
	if !ok || !s.Slice3 || s.Max == nil {
		return token.NoPos, false
	}
	if lit, ok := ast.Unparen(s.Max).(*ast.BasicLit); ok && lit.Value == "0" {
		return s.Pos(), true
	}
	return token.NoPos, false
}

func isBuiltinAppendInfo(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// scanAllocFacts seeds the allocates fact from one AST node during the
// direct-fact walk. //nyx:alloc at the site means the allocation was
// reviewed where it happens, so callers are not tainted.
func (prog *Program) scanAllocFacts(node *FuncNode, ff *funcFacts, n ast.Node,
	allowed func(token.Pos, string) bool, set func(factKind, token.Pos, string)) {
	for _, site := range allocSitesOf(node.Pkg, n) {
		if !allowed(site.pos, "alloc") {
			set(factAllocates, site.pos, site.desc)
		}
	}
}
