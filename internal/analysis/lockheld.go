package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// LockHeld flags blocking operations, taking another mutex among them,
// reachable while a service/store mutex is held.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: `forbid blocking while a mutex is held, taking another mutex included

The service manager and the checkpoint store guard state that campaign
actors, HTTP handlers and store callers reach from many goroutines: a
channel operation, WaitGroup or Cond wait, sleep, network round-trip or
call into the store from another package made while one of their mutexes
is held stalls every goroutine queued on it, and can deadlock against the
actor loops that serve those channels. Taking a mutex counts as blocking too, so no mutex is ever taken
while another is held and no acquisition order exists to get wrong. The
analysis tracks sync.Mutex/RWMutex held regions: from a Lock or RLock to
the matching Unlock, or to the end of the function after a deferred
Unlock. It flags blocking statements inside them, and calls whose callees
may block, directly or further down, reported with the full call chain.
Calls launched with go or defer inside the region run outside it and are
not flagged. A TryLock or TryRLock opens a region the analysis does not
model, so it is reported itself: use Lock. Reviewed exceptions carry
//nyx:blocking.

Only this check catches, for example, service's Manager.List holding m.mu
across each campaign's snapshot, which takes that campaign's mu: no test
fails and the race detector reports nothing, since nesting two locks races
on no memory.`,
	PkgPaths: []string{
		"repro/internal/service",
		"repro/internal/store",
	},
	Run: runLockHeld,
}

func runLockHeld(pass *Pass) error {
	sites := passCallSites(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			case *ast.CallExpr:
				if _, ok := mutexCallExpr(pass, fn, "TryLock", "TryRLock"); ok {
					pass.Reportf(fn.Pos(), "%s is not modelled by lockheld; use Lock", renderExpr(pass.Fset, fn.Fun))
				}
				return true
			default:
				return true
			}
			if body != nil {
				checkLockRegions(pass, body, sites)
			}
			return true
		})
	}
	return nil
}

// passCallSites indexes the package's resolved call sites by position so
// the region walk can consult transitive may-block facts (and skip calls
// detached by go/defer).
func passCallSites(pass *Pass) map[token.Pos]*CallSite {
	sites := make(map[token.Pos]*CallSite)
	for _, node := range pass.Prog.nodes {
		if node.Pkg.PkgPath != pass.PkgPath {
			continue
		}
		for _, site := range node.Calls {
			sites[site.Pos] = site
		}
	}
	return sites
}

// checkLockRegions scans one function body (not descending into nested
// function literals, which run on their own goroutine or later) for held-
// mutex regions and flags blocking statements inside them.
func checkLockRegions(pass *Pass, body *ast.BlockStmt, sites map[token.Pos]*CallSite) {
	var walkBlock func(stmts []ast.Stmt)
	walkBlock = func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			if recv, ok := mutexCall(pass, stmt, "Lock", "RLock"); ok {
				from, to := regionAfterLock(pass, stmts[i+1:], body, recv)
				flagBlockingBetween(pass, body, from, to, recv, sites)
				continue
			}
			// Recurse into nested blocks so locks taken inside an if/for
			// body are still tracked.
			switch s := stmt.(type) {
			case *ast.BlockStmt:
				walkBlock(s.List)
			case *ast.IfStmt:
				walkBlock(s.Body.List)
				if alt, ok := s.Else.(*ast.BlockStmt); ok {
					walkBlock(alt.List)
				}
			case *ast.ForStmt:
				walkBlock(s.Body.List)
			case *ast.RangeStmt:
				walkBlock(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkBlock(cc.Body)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkBlock(cc.Body)
					}
				}
			}
		}
	}
	walkBlock(body.List)
}

// regionAfterLock determines the held region following a Lock on recv:
// if the lock is released by a defer, the region runs to the end of the
// function; otherwise it runs until the matching Unlock statement (or the
// end of the surrounding statement list if none is found).
func regionAfterLock(pass *Pass, rest []ast.Stmt, body *ast.BlockStmt, recv string) (from, to token.Pos) {
	if len(rest) == 0 {
		return body.End(), body.End()
	}
	from = rest[0].Pos()
	for _, stmt := range rest {
		if d, ok := stmt.(*ast.DeferStmt); ok {
			if r, ok := mutexCallExpr(pass, d.Call, "Unlock", "RUnlock"); ok && r == recv {
				return from, body.End()
			}
		}
		if r, ok := mutexCall(pass, stmt, "Unlock", "RUnlock"); ok && r == recv {
			return from, stmt.Pos()
		}
	}
	return from, rest[len(rest)-1].End()
}

// mutexCall matches an expression statement calling a sync mutex method in
// names and returns the rendered receiver expression (e.g. "b.mu").
func mutexCall(pass *Pass, stmt ast.Stmt, names ...string) (string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	return mutexCallExpr(pass, call, names...)
}

func mutexCallExpr(pass *Pass, call *ast.CallExpr, names ...string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	for _, name := range names {
		if fn.Name() == name {
			return renderExpr(pass.Fset, sel.X), true
		}
	}
	return "", false
}

func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// flagBlockingBetween reports blocking operations positioned in [from, to)
// inside the function body, skipping nested function literals. Channel
// operations that are a select's comm clauses are not reported separately:
// the select statement itself is the (single) blocking point.
func flagBlockingBetween(pass *Pass, body *ast.BlockStmt, from, to token.Pos, recv string, sites map[token.Pos]*CallSite) {
	var comms []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms = append(comms, cc.Comm)
				}
			}
		}
		return true
	})
	inComm := func(n ast.Node) bool {
		for _, c := range comms {
			if n.Pos() >= c.Pos() && n.End() <= c.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n.Pos() < from || n.Pos() >= to {
			// Children may still overlap the region.
			return n.End() > from
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !inComm(n) {
				report(pass, n, recv, "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm(n) {
				report(pass, n, recv, "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				report(pass, n, recv, "blocking select")
			}
		case *ast.CallExpr:
			if name, ok := blockingCall(pass.PkgPath, pass.TypesInfo, n); ok {
				report(pass, n, recv, name)
				return true
			}
			// Transitive: the callee (or something it reaches) may block.
			// Calls detached by go/defer run outside the held region.
			site := sites[n.Pos()]
			if site == nil || site.Call != n {
				return true
			}
			for _, callee := range site.Callees {
				if pass.Prog.mayBlock(callee) != nil {
					report(pass, n, recv, "call that may block: "+pass.Prog.chain(callee))
					break // one report per site, even with several CHA targets
				}
			}
		}
		return true
	})
}

func report(pass *Pass, n ast.Node, recv, what string) {
	if pass.Allowed(n) {
		return
	}
	pass.Reportf(n.Pos(), "%s while %s is held: release the lock first, or annotate a reviewed site with //nyx:blocking", what, recv)
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall recognizes calls, made from package from, that can block on
// other goroutines or on I/O: taking a mutex, WaitGroup/Cond waits, sleeps,
// network round-trips, and calls into the checkpoint store from outside it.
func blockingCall(from string, info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFuncInfo(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg := fn.Pkg().Path()
	switch {
	case pkg == "sync" && (fn.Name() == "Wait" || fn.Name() == "Lock" || fn.Name() == "RLock"):
		return "sync." + recvTypeName(fn) + "." + fn.Name(), true
	case pkg == "time" && fn.Name() == "Sleep":
		return "time.Sleep", true
	case pkg == "net" || pkg == "net/http":
		return pkg + "." + fn.Name() + " I/O", true
	case strings.HasSuffix(pkg, "internal/store") && pkg != from:
		return "store I/O (" + fn.Name() + ")", true
	}
	return "", false
}

func recvTypeName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
