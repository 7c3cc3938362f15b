package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A fact is one boolean summary about a function, computed directly from
// its body and then propagated transitively through the call graph to a
// fixed point.
type factKind int

const (
	factWallclock factKind = iota // calls time.Now/Since/Until
	factRand                      // consults the global math/rand generator
	factMayBlock                  // may block: channel op, select, Lock, Wait, sleep, net/store I/O
	numFactKinds
)

func (k factKind) String() string {
	switch k {
	case factWallclock:
		return "reads-wallclock"
	case factRand:
		return "uses-global-rand"
	case factMayBlock:
		return "may-block"
	}
	return "unknown-fact"
}

// witness records why a fact holds for a function: either a direct source
// site in its own body (Callee == nil) or a call to a function that already
// had the fact (Callee != nil). Chains reconstructed by following witnesses
// are minimal in call-graph hops because propagation is round-staged.
type witness struct {
	Pos    token.Pos
	Desc   string      // direct witnesses: what the site is, e.g. "time.Now"
	Callee *types.Func // transitive witnesses: the callee the fact came from
}

// funcFacts is the per-function summary.
type funcFacts struct {
	has [numFactKinds]bool
	wit [numFactKinds]witness
}

// maxPropagationRounds bounds fixed-point iteration; negative means
// "until convergence". Tests lower it to prove that breaking propagation
// breaks the transitive fixtures (a mutation check on the engine itself).
var maxPropagationRounds = -1

// SetMaxPropagationRoundsForTest overrides the fixed-point round bound and
// returns a restore func. Round bound 0 disables transitive propagation
// entirely, degrading every analyzer to its intraprocedural version.
func SetMaxPropagationRoundsForTest(n int) (restore func()) {
	old := maxPropagationRounds
	maxPropagationRounds = n
	return func() { maxPropagationRounds = old }
}

// facts returns the summary for fn, or nil when fn has no node (stdlib or
// API-only dependency: no body, no facts).
func (prog *Program) factsOf(fn *types.Func) *funcFacts {
	if fn == nil {
		return nil
	}
	return prog.facts[fn]
}

// computeFacts seeds direct facts from every node's body, then propagates
// them through call sites round by round (Jacobi style: each round only
// reads the previous round's state) until nothing changes. Round staging
// plus deterministic node/call ordering makes both the fixed point and the
// recorded witnesses independent of map iteration order, and yields
// shortest witness chains.
func (prog *Program) computeFacts() {
	prog.facts = make(map[*types.Func]*funcFacts, len(prog.nodes))
	for _, node := range prog.nodes {
		prog.facts[node.Fn] = prog.directFacts(node)
	}
	round := 0
	for {
		if maxPropagationRounds >= 0 && round >= maxPropagationRounds {
			return
		}
		round++
		type update struct {
			ff   *funcFacts
			kind factKind
			wit  witness
		}
		var updates []update
		// seen dedupes updates within the round without mutating the state
		// the scan reads: the scan must only observe the previous round's
		// fixed state, or chains lose their shortest-path property and
		// half-committed witnesses could be read back.
		type updKey struct {
			ff   *funcFacts
			kind factKind
		}
		seen := make(map[updKey]bool)
		for _, node := range prog.nodes {
			ff := prog.facts[node.Fn]
			for _, site := range node.Calls {
				for _, callee := range site.Callees {
					cf := prog.factsOf(callee)
					if cf == nil || cf == ff {
						continue
					}
					for k := factKind(0); k < numFactKinds; k++ {
						if !cf.has[k] || ff.has[k] || seen[updKey{ff, k}] {
							continue
						}
						// Detached execution: the spawner still inherits
						// nondeterminism (the output diverges regardless of
						// which goroutine reads the clock), but not blocking.
						if site.ViaGo && k == factMayBlock {
							continue
						}
						seen[updKey{ff, k}] = true
						updates = append(updates, update{ff: ff, kind: k,
							wit: witness{Pos: site.Pos, Callee: callee}})
					}
				}
			}
		}
		if len(updates) == 0 {
			return
		}
		for _, u := range updates {
			u.ff.has[u.kind] = true
			u.ff.wit[u.kind] = u.wit
		}
	}
}

// directFacts scans one function body for fact sources. A //nyx: directive
// at the source site (wallclock, rand, blocking) suppresses the fact
// itself: the site was reviewed where it happens, so callers are not
// tainted by it.
func (prog *Program) directFacts(node *FuncNode) *funcFacts {
	ff := &funcFacts{}
	allowed := func(pos token.Pos, name string) bool {
		return prog.allowedAt(node.Pkg, pos, name)
	}
	set := func(k factKind, pos token.Pos, desc string) {
		if !ff.has[k] {
			ff.has[k] = true
			ff.wit[k] = witness{Pos: pos, Desc: desc}
		}
	}

	var walk func(n ast.Node, viaGo bool)
	walk = func(n ast.Node, viaGo bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				walkDetachedCall(m.Call, viaGo, walk)
				scanCallFacts(node, m.Call, true, allowed, set)
				return false
			case *ast.DeferStmt:
				walkDetachedCall(m.Call, viaGo, walk)
				scanCallFacts(node, m.Call, true, allowed, set)
				return false
			case *ast.CallExpr:
				scanCallFacts(node, m, viaGo, allowed, set)
			case *ast.SendStmt:
				if !viaGo && !allowed(m.Pos(), "blocking") {
					set(factMayBlock, m.Pos(), "channel send")
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !viaGo && !allowed(m.Pos(), "blocking") {
					set(factMayBlock, m.Pos(), "channel receive")
				}
			case *ast.SelectStmt:
				if !viaGo && !selectHasDefault(m) && !allowed(m.Pos(), "blocking") {
					set(factMayBlock, m.Pos(), "blocking select")
				}
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
	return ff
}

// allowedAt checks a //nyx: directive by position using the program-wide
// directive index (usable outside the reporting package's own pass).
func (prog *Program) allowedAt(pkg *Package, pos token.Pos, name string) bool {
	return prog.pkgDirectives(pkg.PkgPath).allowed(pkg.Fset, pos, name)
}

// scanCallFacts records facts arising directly from one call expression:
// wall-clock reads, global rand, and known-blocking calls (lock
// acquisitions among them).
func scanCallFacts(node *FuncNode, call *ast.CallExpr,
	viaGo bool, allowed func(token.Pos, string) bool, set func(factKind, token.Pos, string)) {

	pkg := node.Pkg
	fn := calleeFuncInfo(pkg.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until"):
		if !allowed(call.Pos(), "wallclock") {
			set(factWallclock, call.Pos(), "time."+fn.Name())
		}
	case (path == "math/rand" || path == "math/rand/v2") &&
		fn.Signature().Recv() == nil && globalRandFns[fn.Name()]:
		if !allowed(call.Pos(), "rand") {
			set(factRand, call.Pos(), "rand."+fn.Name())
		}
	}
	if !viaGo {
		if name, ok := blockingCall(pkg.PkgPath, pkg.TypesInfo, call); ok && !allowed(call.Pos(), "blocking") {
			set(factMayBlock, call.Pos(), name)
		}
	}
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

// chain renders the witness chain explaining why fact k holds for fn,
// starting from a call site in the reporting function:
//
//	mem.(*Manager).RestoreRoot → device.Set.LoadSnapshots → time.Now (device/device.go:42)
//
// The final element is the direct source with its position.
func (prog *Program) chain(fn *types.Func, k factKind) string {
	var parts []string
	for hops := 0; fn != nil && hops < 64; hops++ {
		ff := prog.factsOf(fn)
		if ff == nil || !ff.has[k] {
			break
		}
		w := ff.wit[k]
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
