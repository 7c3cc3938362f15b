package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The fact engine keeps one boolean summary per function, may-block: the
// function blocks (channel op, blocking select, Lock, Wait, sleep, net or
// store I/O) directly in its body or through a callee. It is computed from
// each body and then propagated through the call graph to a fixed point.

// witness records why a function may block: either a direct source site in
// its own body (Callee == nil) or a call to a function that already may
// block (Callee != nil). Chains reconstructed by following witnesses are
// minimal in call-graph hops because propagation is round-staged.
type witness struct {
	Pos    token.Pos
	Desc   string      // direct witnesses: what the site is, e.g. "channel send"
	Callee *types.Func // transitive witnesses: the callee the fact came from
}

// maxPropagationRounds bounds fixed-point iteration; negative means
// "until convergence". Tests lower it to prove that breaking propagation
// breaks the transitive fixtures (a mutation check on the engine itself).
var maxPropagationRounds = -1

// SetMaxPropagationRoundsForTest overrides the fixed-point round bound and
// returns a restore func. Round bound 0 disables transitive propagation
// entirely, degrading the analyzer to its intraprocedural version.
func SetMaxPropagationRoundsForTest(n int) (restore func()) {
	old := maxPropagationRounds
	maxPropagationRounds = n
	return func() { maxPropagationRounds = old }
}

// mayBlock returns why fn may block, or nil when it does not or has no node
// (stdlib or API-only dependency: no body, no facts).
func (prog *Program) mayBlock(fn *types.Func) *witness { return prog.blocks[fn] }

// computeFacts seeds direct facts from every node's body, then propagates
// them through call sites round by round (Jacobi style: each round only
// reads the previous round's state) until nothing changes. Round staging
// plus deterministic node/call ordering makes both the fixed point and the
// recorded witnesses independent of map iteration order, and yields
// shortest witness chains.
func (prog *Program) computeFacts() {
	prog.blocks = make(map[*types.Func]*witness, len(prog.nodes))
	for _, node := range prog.nodes {
		if w := prog.directFacts(node); w != nil {
			prog.blocks[node.Fn] = w
		}
	}
	for round := 0; maxPropagationRounds < 0 || round < maxPropagationRounds; round++ {
		// The round collects its updates before committing any: the scan
		// must only observe the previous round's fixed state, or chains
		// lose their shortest-path property.
		type update struct {
			fn *types.Func
			w  *witness
		}
		var updates []update
		for _, node := range prog.nodes {
			if prog.blocks[node.Fn] != nil {
				continue
			}
			for _, site := range node.Calls {
				if i := slices.IndexFunc(site.Callees, func(c *types.Func) bool { return prog.mayBlock(c) != nil }); i >= 0 {
					updates = append(updates, update{node.Fn, &witness{Pos: site.Pos, Callee: site.Callees[i]}})
					break
				}
			}
		}
		if len(updates) == 0 {
			return
		}
		for _, u := range updates {
			prog.blocks[u.fn] = u.w
		}
	}
}

// directFacts scans one function body for blocking sites and returns the
// first, or nil. A //nyx:blocking directive at the site suppresses the
// fact itself: the site was reviewed where it happens, so callers are not
// tainted by it.
func (prog *Program) directFacts(node *FuncNode) *witness {
	var w *witness
	set := func(pos token.Pos, desc string) {
		if w == nil && !prog.pkgDirectives(node.Pkg.PkgPath).allowed(node.Pkg.Fset, pos) {
			w = &witness{Pos: pos, Desc: desc}
		}
	}
	inspectInline(node.Decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := blockingCall(node.Pkg.PkgPath, node.Pkg.TypesInfo, n); ok {
				set(n.Pos(), name)
			}
		case *ast.SendStmt:
			set(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				set(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				set(n.Pos(), "blocking select")
			}
		}
	})
	return w
}

func pkgName(p *types.Package) string {
	if p == nil {
		return "?"
	}
	return p.Name()
}

// calleeFuncInfo resolves a call's callee to a *types.Func when it is a
// direct (possibly selector-qualified) function or method reference.
func calleeFuncInfo(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// chain renders the witness chain explaining why fn may block, starting
// from a call site in the reporting function:
//
//	store.(*Bucket).emit → store.(*Bucket).relay (channel send at a.go:101)
//
// The final element is the direct source with its position.
func (prog *Program) chain(fn *types.Func) string {
	var parts []string
	for hops := 0; fn != nil && hops < 64; hops++ {
		w := prog.mayBlock(fn)
		if w == nil {
			break
		}
		if w.Callee == nil {
			parts = append(parts, fmt.Sprintf("%s (%s at %s)", shortFuncName(fn), w.Desc, prog.Fset.Position(w.Pos)))
			return strings.Join(parts, " → ")
		}
		parts = append(parts, shortFuncName(fn))
		fn = w.Callee
	}
	return strings.Join(parts, " → ")
}

// shortFuncName renders fn as pkgname.Func or pkgname.(*Type).Method —
// readable in a one-line diagnostic, unlike FullName's full import path.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		if n, ok := t.(*types.Named); ok {
			if star != "" {
				return fmt.Sprintf("%s.(*%s).%s", pkgName(fn.Pkg()), n.Obj().Name(), name)
			}
			return fmt.Sprintf("%s.%s.%s", pkgName(fn.Pkg()), n.Obj().Name(), name)
		}
	}
	return pkgName(fn.Pkg()) + "." + name
}
