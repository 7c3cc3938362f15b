package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Program is the interprocedural view shared by every pass of one Run: a
// call graph over all loaded target packages (the ones with full bodies)
// and the per-function may-block summaries computed over it. Dependencies loaded
// API-only contribute no nodes; calls into them resolve to nil targets and
// simply terminate propagation, which is what keeps the fact engine seeded
// exclusively by source the repository owns.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// nodes holds every declared function/method in a target package, in
	// deterministic order: (package path, position). Function literals are
	// folded into their enclosing declaration.
	nodes []*FuncNode
	// implementers, per interface method "I.m" identity, lists the concrete
	// methods CHA resolves a dynamic call to. Keyed by the interface
	// *types.Func of the method.
	implementers map[*types.Func][]*types.Func
	// directives indexes //nyx:blocking comments per package so fact
	// generation can honour source-site suppressions before any pass runs.
	directives map[string]*directiveIndex

	// blocks holds why each function that may block does.
	blocks map[*types.Func]*witness
}

// FuncNode is one declared function or method in a target package.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the node's resolved outgoing call sites in source order,
	// leaving out calls launched with go or defer (see inspectInline).
	Calls []*CallSite
}

// CallSite is one resolved call expression inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	Pos  token.Pos
	// Callees lists the possible static targets: a single *types.Func for a
	// direct call, or every CHA-resolved concrete method for a call through
	// an interface.
	Callees []*types.Func
}

// buildProgram constructs the call graph and computes the may-block
// summaries for the given target packages.
func buildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:         pkgs,
		implementers: make(map[*types.Func][]*types.Func),
		directives:   make(map[string]*directiveIndex),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		prog.directives[pkg.PkgPath] = indexDirectives(pkg.Fset, pkg.Files)
	}
	prog.collectNodes()
	prog.buildCHA()
	prog.resolveCalls()
	prog.computeFacts()
	return prog
}

// pkgDirectives returns the //nyx:blocking directive index for a loaded
// package.
func (prog *Program) pkgDirectives(pkgPath string) *directiveIndex {
	return prog.directives[pkgPath]
}

func (prog *Program) collectNodes() {
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.nodes = append(prog.nodes, &FuncNode{Fn: obj, Decl: fd, Pkg: pkg})
			}
		}
	}
	sort.Slice(prog.nodes, func(i, j int) bool {
		a, b := prog.nodes[i], prog.nodes[j]
		if a.Pkg.PkgPath != b.Pkg.PkgPath {
			return a.Pkg.PkgPath < b.Pkg.PkgPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
}

// buildCHA records, for every interface method reachable from target
// packages, the concrete methods implementing it on named types declared in
// target packages — class-hierarchy analysis over the code the repository
// owns. Calls through vm.Device, store.Storer, core.Target and friends
// resolve to every in-module implementation.
func (prog *Program) buildCHA() {
	// Concrete named types declared in target packages.
	var concrete []*types.Named
	// Interfaces worth indexing: declared in target packages, or used as
	// the static type of a call receiver there (collected lazily below from
	// method sets of the concrete types).
	ifaceSeen := make(map[*types.TypeName]bool)
	var ifaces []*types.Named

	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				if !ifaceSeen[tn] {
					ifaceSeen[tn] = true
					ifaces = append(ifaces, named)
				}
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	// Interfaces imported from API-only dependencies still matter when a
	// target type implements them; index every named interface mentioned in
	// any target package's type uses. Iterate deterministically later — the
	// resulting implementers lists are sorted, so collection order is moot.
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || ifaceSeen[tn] {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && types.IsInterface(named) {
				ifaceSeen[tn] = true
				ifaces = append(ifaces, named)
			}
		}
	}

	for _, iface := range ifaces {
		it, ok := iface.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			continue
		}
		for _, impl := range concrete {
			ptr := types.NewPointer(impl)
			implements := types.Implements(impl, it) || types.Implements(ptr, it)
			if !implements {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, impl.Obj().Pkg(), im.Name())
				cm, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				prog.implementers[im] = append(prog.implementers[im], cm)
			}
		}
	}
	for im, impls := range prog.implementers {
		sort.Slice(impls, func(i, j int) bool { return impls[i].FullName() < impls[j].FullName() })
		prog.implementers[im] = impls
	}
}

// resolveCalls walks every node's body recording call sites and their
// static targets.
func (prog *Program) resolveCalls() {
	for _, node := range prog.nodes {
		prog.resolveNodeCalls(node)
	}
}

func (prog *Program) resolveNodeCalls(node *FuncNode) {
	inspectInline(node.Decl.Body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			prog.addCall(node, node.Pkg.TypesInfo, call)
		}
	})
	sort.Slice(node.Calls, func(i, j int) bool { return node.Calls[i].Pos < node.Calls[j].Pos })
}

// inspectInline calls f on every node of body in the function's own flow:
// a call launched with go or defer runs detached (on another goroutine, or
// after the function's own unlocks), so its function and the call itself
// are skipped, and only its arguments, which evaluate in place, are walked.
func inspectInline(body ast.Node, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case nil:
			return false
		case *ast.GoStmt:
			call = n.Call
		case *ast.DeferStmt:
			call = n.Call
		default:
			f(n)
			return true
		}
		for _, arg := range call.Args {
			inspectInline(arg, f)
		}
		return false
	})
}

func (prog *Program) addCall(node *FuncNode, info *types.Info, call *ast.CallExpr) {
	site := &CallSite{Call: call, Pos: call.Pos()}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			site.Callees = []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			break
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				// Dynamic dispatch: CHA gives the possible concrete targets.
				site.Callees = prog.implementers[fn]
				break
			}
		}
		site.Callees = []*types.Func{fn}
	case *ast.FuncLit:
		// Immediately-invoked literal: body already walked inline.
	}
	if len(site.Callees) == 0 {
		// Unresolved (func value, builtin, conversion, literal): a fact
		// cannot flow through the site, so there is nothing to record.
		return
	}
	node.Calls = append(node.Calls, site)
}
